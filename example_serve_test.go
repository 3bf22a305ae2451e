package dnhunter_test

import (
	"context"
	"fmt"
	"time"

	dnhunter "repro"
)

// ExampleServer_Serve runs the streaming mode over a synthetic trace:
// finished flows leave through rolling 10-minute windows instead of
// accumulating in memory, and the report carries the same aggregate
// statistics a batch run would.
func ExampleServer_Serve() {
	tr := dnhunter.GenerateQuickTrace(1)
	eng := dnhunter.NewEngine(dnhunter.WithTruth(tr.TruthFunc()))

	var windows, flows int
	srv := eng.Server(dnhunter.ServeConfig{
		Window: 10 * time.Minute,
		FlushWindow: func(w dnhunter.Window) error {
			windows++
			flows += w.DB.Len()
			return nil
		},
	})
	rep, err := srv.Serve(context.Background(), tr.Source())
	if err != nil {
		panic(err)
	}
	fmt.Printf("windows=%d flows=%d\n", windows, flows)
	fmt.Printf("emitted=%d labeled=%d\n", rep.Stats.Flows, rep.Stats.LabeledFlows)
	// Output:
	// windows=3 flows=429
	// emitted=429 labeled=365
}
