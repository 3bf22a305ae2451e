package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the driver's declaration at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return &b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The Go tables are where a metric is declared; BENCHMARK.json repeats
// them for the driver and must not drift.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, defined %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, defined %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end_to_end %d: declared %+v, defined %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per_layer %d: declared %+v, defined %+v", i, j, d)
		}
	}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%+v: name, unit or direction outside the contract's limits", d)
		}
		if seen[d.Name] {
			t.Errorf("%s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload in both passes at smoke size: every
// declared metric of the pass is emitted and nothing else, nothing fails,
// and the span file parses into one tree.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, d := range b.EndToEnd {
		declared[false][d.Name] = d.Unit
	}
	for _, d := range b.PerLayer {
		declared[true][d.Name] = d.Unit
	}
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(context.Background(), w, runConfig{Seed: 1, Seconds: smokeSeconds, Trace: traced, Smoke: true, OutDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.Name, traced, r.Attempted, r.Failed, r.Notes)
			}
			want := declared[traced]
			for name, m := range r.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: emitted %s [%s], which BENCHMARK.json does not declare so", w.Name, traced, name, m.Unit)
				}
			}
			for name := range want {
				m, ok := r.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s not emitted", w.Name, traced, name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			line, err := json.Marshal(driverLine(r))
			if err != nil || !json.Valid(line) {
				t.Errorf("%s trace=%v: driver line does not encode: %v", w.Name, traced, err)
			}
		}
		checkSpans(t, filepath.Join(dir, "trace-"+w.Name+".json"), w.Name)
	}
}

func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if f.Workload != workload || len(f.Spans) < 10 {
		t.Fatalf("%s: workload %q, %d spans", path, f.Workload, len(f.Spans))
	}
	for i, s := range f.Spans {
		root := i == 0
		if s.ID != i || s.Workload != workload || s.End < s.Start || !nameRE.MatchString(s.Name) {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		// Every span hangs off an earlier one; only the pass's root has none.
		if root != (s.Parent == -1) || s.Parent >= i {
			t.Errorf("%s: span %d (%s) has parent %d", path, i, s.Name, s.Parent)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(pps float64) *resultFile {
		f := &resultFile{}
		for seed, jitter := range []float64{0.99, 1, 1.01, 1.005, 0.995} {
			f.Runs = append(f.Runs, &runResult{Workload: "batch-ftth", Seed: uint64(seed), Metrics: map[string]measurement{
				"pkts_per_s": {Value: pps * jitter, Unit: "pkts/s"},
				"setup_s":    {Value: 1 + float64(seed), Unit: "s"}, // spread far beyond its bound
			}})
		}
		return f
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := mk(1e6).write(a); err != nil {
		t.Fatal(err)
	}
	if err := mk(0.7e6).write(b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pkts_per_s", "-30.00%", "worse", "unresolved", "within 0  worse 1  unresolved 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := compareFiles(&out, a, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "within 1  worse 0  unresolved 1") {
		t.Errorf("a file against itself:\n%s", out.String())
	}
}
