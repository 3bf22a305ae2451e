package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/netio"
)

// Serve mode's source wrapper, for the external test package
// (sourcecap_test.go, which checks it beside the fault harness and netio's
// wrappers), in its two roles: without a RestartPolicy it only counts and
// drains ("drainSource"); with one it also supervises ("supervisedSource").
// Each is built the way Serve builds it, with nothing armed: no drain
// signal, no source errors.
var InternalWrappersForTest = []struct {
	Name string
	Wrap func(netio.BlockRefSource) netio.BlockRefSource
}{
	{"drainSource", func(src netio.BlockRefSource) netio.BlockRefSource {
		return newServeSource(src, nil, new(ServeMetrics))
	}},
	{"supervisedSource", func(src netio.BlockRefSource) netio.BlockRefSource {
		return newServeSource(src, &RestartPolicy{}, new(ServeMetrics))
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
