package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/netio"
)

// Serve mode's source wrapper, for the external test package
// (sourcecap_test.go, which checks it beside the fault harness and netio's
// wrappers). It counts and drains ("drainSource"), and is built the way
// Serve builds it, with nothing armed: no drain signal, no source error.
var InternalWrappersForTest = []struct {
	Name string
	Wrap func(netio.BlockRefSource) netio.BlockRefSource
}{
	{"drainSource", func(src netio.BlockRefSource) netio.BlockRefSource {
		return &serveSource{src: src, m: new(ServeMetrics)}
	}},
}

// ReadBlockLen is the most packets the engine asks its source for in one
// read call.
const ReadBlockLen = blockLen

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
