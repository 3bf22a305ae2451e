package stream_test

import (
	"io"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/analytics/stream"
	"repro/internal/flowdb"
)

// TestPipelineObserveAllocFree: once warm, observing a flow through the
// full standard streaming query set allocates nothing — an alloc here
// would be a per-flow alloc under run-forever serving.
func TestPipelineObserveAllocFree(t *testing.T) {
	flows := testFlows(4096, 7)
	p := analytics.NewPipeline(stream.StandardQueries(nil)...)
	observeAll := func() {
		for i := range flows {
			p.Observe(&flows[i])
		}
	}
	// AllocsPerRun's untimed first pass brings sketches and maps to steady
	// state; measuring whole passes fails even one allocation in 4096 flows.
	if n := testing.AllocsPerRun(5, observeAll); n != 0 {
		t.Fatalf("warm Observe allocates %v per %d-flow pass, want 0", n, len(flows))
	}
}

// TestObserveDBAllocsO1: a warm pipeline reads a 10k-flow DB's compact rows
// through one reused decode target, so the whole pass allocates at most
// that one LabeledFlow — nothing per flow.
func TestObserveDBAllocsO1(t *testing.T) {
	db := flowdb.New()
	for _, f := range testFlows(10000, 7) {
		db.Add(f)
	}
	p := analytics.NewPipeline(stream.StandardQueries(nil)...)
	if n := testing.AllocsPerRun(5, func() { p.ObserveDB(db) }); n > 1 {
		t.Fatalf("warm ObserveDB allocates %v per %d-flow pass, want at most 1", n, db.Len())
	}
}

// TestWarmWindowedRotationAllocFree: the serve-mode flow path — a Windowed
// store whose rotation feeds Pipeline.ObserveWindow and then WriteCSV —
// allocates nothing per flow once the first window has sized the DBs, the
// name tables and the sketches: a rotation over four times the flows
// allocates exactly as often.
func TestWarmWindowedRotationAllocFree(t *testing.T) {
	fs := testFlows(4096, 11)
	p := analytics.NewPipeline(stream.StandardQueries(nil)...)
	w := flowdb.NewWindowed(flowdb.WindowConfig{
		Width:   time.Minute,
		Observe: p.ObserveWindow,
		Flush:   func(win flowdb.Window) error { return win.DB.WriteCSV(io.Discard) },
	})
	window := 0
	// rotate adds n flows to one window, then one flow of the next, which
	// rotates the window out through Observe and Flush.
	rotate := func(n int) {
		base := time.Duration(window) * time.Minute
		for i := range n {
			f := fs[i]
			f.End = base + time.Duration(i)*time.Millisecond
			if err := w.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		window++
	}
	rotate(len(fs)) // the first window sizes everything
	rotate(len(fs))
	small := testing.AllocsPerRun(10, func() { rotate(len(fs) / 4) })
	large := testing.AllocsPerRun(10, func() { rotate(len(fs)) })
	if large != small {
		t.Fatalf("warm rotation allocates %v times over %d flows but %v over %d: %v per extra flow",
			small, len(fs)/4, large, len(fs), (large-small)/float64(len(fs)-len(fs)/4))
	}
}

// BenchmarkPipelineObserve times one flow through the full standard
// streaming query set; TestPipelineObserveAllocFree pins it at 0 allocs.
// serve-ftth in the repo benchmark measures the same set end to end.
func BenchmarkPipelineObserve(b *testing.B) {
	flows := testFlows(4096, 7)
	p := analytics.NewPipeline(stream.StandardQueries(nil)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(&flows[i%len(flows)])
	}
}
