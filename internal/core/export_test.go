package core

import "repro/internal/netio"

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
