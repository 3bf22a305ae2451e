// Package experiments regenerates every table and figure of the paper's
// evaluation (§5, §6) on synthetic traces. All declares each experiment
// once; cmd/experiments, the benchmark harness and the determinism test
// each run that one list.
package experiments

// Metric is one headline number of an experiment, named in the unit form
// `go test -bench` reports (`%http-hit`, `fqdn-late-growth`).
type Metric struct {
	Name  string
	Value float64
}

// Report is what every experiment returns: its paper-style rendering and
// its headline numbers. Err is set when the experiment checks a bound and
// the run violated it.
type Report struct {
	Text    string
	Metrics []Metric
	Err     error
}

// Experiment pairs a section id with the run that renders it.
type Experiment struct {
	ID  string
	Run func(*Suite) Report
}

// All lists every experiment in print order. An ID is the section header
// cmd/experiments prints: T1–T9 (tables), F3–F14 (figures), XV (the
// cross-vantage analysis), SK (sketches vs their exact references) and
// A:* (the §6 ablations).
var All = []Experiment{
	{"T1", (*Suite).Table1},
	{"T2", (*Suite).Table2},
	{"T3", (*Suite).Table3},
	{"T4", (*Suite).Table4},
	{"T5", (*Suite).Table5},
	{"T6", (*Suite).Table6},
	{"T7", (*Suite).Table7},
	{"T8", (*Suite).Table8},
	{"T9", (*Suite).Table9},
	{"F3", (*Suite).Figure3},
	{"F4", (*Suite).Figure4},
	{"F5", (*Suite).Figure5},
	{"F6", (*Suite).Figure6},
	{"F7", (*Suite).Figure7},
	{"F8", (*Suite).Figure8},
	{"F9", (*Suite).Figure9},
	{"F10", (*Suite).Figure10},
	{"F11", (*Suite).Figure11},
	{"F12/F13", (*Suite).Figure12And13},
	{"F14", (*Suite).Figure14},
	{"XV", (*Suite).CrossVantage},
	{"SK", (*Suite).SketchVsExact},
	{"A:clist", (*Suite).AblationClistSize},
	{"A:multilabel", (*Suite).AblationMultiLabel},
	{"A:tagscore", (*Suite).AblationTagScore},
}
