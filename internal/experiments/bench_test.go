package experiments

import "testing"

// BenchmarkExperiments times every entry of All on one shared suite and
// reports its headline metrics, so `go test -bench .` output doubles as
// the reproduction record. The suite caches trace synthesis and the
// default pipeline runs, so each entry runs once to warm them before
// b.Loop times it.
func BenchmarkExperiments(b *testing.B) {
	s := NewSuite(0.35, 1)
	s.LiveDays = 4
	for _, e := range All {
		b.Run(e.ID, func(b *testing.B) {
			e.Run(s)
			var r Report
			for b.Loop() {
				r = e.Run(s)
			}
			for _, m := range r.Metrics {
				b.ReportMetric(m.Value, m.Name)
			}
		})
	}
}
