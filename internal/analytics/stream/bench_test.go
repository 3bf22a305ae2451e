package stream_test

import (
	"testing"

	"repro/internal/analytics"
	"repro/internal/analytics/stream"
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
