package dnhunter_test

import (
	"context"
	"fmt"

	dnhunter "repro"
)

// ExampleEngine_RunSources ingests three vantage points in one run: each
// gets its own independent pipeline, and the merged database stamps every
// flow with the vantage that observed it.
func ExampleEngine_RunSources() {
	us := dnhunter.GenerateQuickTrace(1)
	eng := dnhunter.NewEngine(
		dnhunter.WithShards(2),                                          // shards per vantage
		dnhunter.WithSource("US", us.Source()),                          // any PacketSource
		dnhunter.WithTraceSource("EU1", dnhunter.GenerateQuickTrace(2)), // synthetic trace + truth sidecar
		dnhunter.WithTraceSource("EU2", dnhunter.GenerateQuickTrace(3)),
		dnhunter.WithDNSTimes(), // collect DNS response times per vantage
	)
	multi, err := eng.RunSources(context.Background())
	if err != nil {
		panic(err)
	}
	stamped := map[string]int{}
	for i := range multi.Merged.DB.Len() {
		stamped[multi.Merged.DB.At(i).Vantage]++
	}
	for _, name := range multi.Vantages {
		vr := multi.PerVantage[name] // one partition per vantage
		fmt.Printf("%s: flows=%d labeled=%d dns=%d merged=%d\n", name,
			vr.DB.Len(), vr.Stats.LabeledFlows, len(vr.DNSTimes), stamped[name])
	}
	fmt.Printf("merged: flows=%d\n", multi.Merged.DB.Len())
	// Output:
	// US: flows=429 labeled=365 dns=696 merged=429
	// EU1: flows=359 labeled=326 dns=590 merged=359
	// EU2: flows=416 labeled=394 dns=711 merged=416
	// merged: flows=1204
}
