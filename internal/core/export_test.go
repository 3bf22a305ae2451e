package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/netio"
)

// The core-internal source wrappers, for the external test package
// (sourcecap_test.go, which checks them beside the fault harness and
// netio's wrappers). Each is built the way the engine builds it, with
// nothing armed: no drain signal, no source errors.
var InternalWrappersForTest = []struct {
	Name string
	Wrap func(netio.BlockRefSource) netio.BlockRefSource
}{
	{"drainSource", func(src netio.BlockRefSource) netio.BlockRefSource {
		return &drainSource{src: src, m: new(ServeMetrics)}
	}},
	{"supervisedSource", func(src netio.BlockRefSource) netio.BlockRefSource {
		return newSupervisedSource(src, nil, RestartPolicy{}, new(ServeMetrics))
	}},
}

// metricValue reads one sample of a ServeMetrics family through Series,
// the way /metrics renders it; it reports a missing family or label set
// as a test error and returns NaN. Safe while the engine runs.
func metricValue(t testing.TB, m *ServeMetrics, name string, labels ...string) float64 {
	for _, f := range m.Series() {
		if f.Name != name {
			continue
		}
		v, found := math.NaN(), false
		f.Read(func(x float64, ls ...string) {
			if slices.Equal(ls, labels) {
				v, found = x, true
			}
		})
		if !found {
			t.Errorf("metric %s%q has no sample", name, labels)
		}
		return v
	}
	t.Errorf("no metric family %s", name)
	return math.NaN()
}
