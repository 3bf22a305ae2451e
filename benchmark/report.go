package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// meta says where a result file's numbers came from.
type meta struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func readMeta(seconds float64, smoke bool) meta {
	m := meta{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Seconds: seconds, Smoke: smoke,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The build stamps the commit when the source tree is a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				m.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
		m.Commit += modified
	}
	return m
}

// resultFile is what -out writes: every run appended to it, each with its
// own seed, under the meta of the invocation that wrote last.
type resultFile struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// driverLine is the record the driver reads: exactly these keys, and for
// each metric exactly its value and unit.
func driverLine(r *runResult) any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = mv{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics}
}

// values collects one end-to-end metric of one workload across a file's
// untraced runs. Several runs (the -runs form) give the run-to-run
// distribution; a single run falls back to its in-run quartiles.
func (f *resultFile) values(workload, metric string) dist {
	var v []float64
	var single measurement
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			single = m
			v = append(v, m.Value)
		}
	}
	if len(v) == 1 {
		return dist{Median: single.Value, Q1: single.Q1, Q3: single.Q3, N: single.N}
	}
	return summarize(v)
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians with quartiles, the relative difference of b against a, the
// bound, and a verdict — within, worse, or unresolved when either side's
// own spread (q3-q1 over its median) is wider than the bound, so that a
// difference of that size could not be told from noise.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  (%s, %s, commit %s)\nb: %s  (%s, %s, commit %s)\n",
		pathA, a.Meta.CPUModel, a.Meta.GoVersion, a.Meta.Commit,
		pathB, b.Meta.CPUModel, b.Meta.GoVersion, b.Meta.Commit)
	fmt.Fprintf(w, "%-14s %-20s %-7s %12s %25s %12s %25s %9s %7s %7s  %s\n",
		"workload", "metric", "unit", "a median", "a [q1, q3] n", "b median", "b [q1, q3] n", "b vs a", "bound", "spread", "verdict")
	counts := map[string]int{}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			da, db := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if da.N == 0 || db.N == 0 {
				continue
			}
			rel := (db.Median - da.Median) / da.Median // relative to a, the base
			worse := rel
			if d.Better == "higher" {
				worse = -rel
			}
			spread := max((da.Q3-da.Q1)/da.Median, (db.Q3-db.Q1)/db.Median)
			verdict := "within"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
			}
			counts[verdict]++
			fmt.Fprintf(w, "%-14s %-20s %-7s %12.6g %25s %12.6g %25s %+8.2f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, d.Name, d.Unit,
				da.Median, fmt.Sprintf("[%.5g, %.5g] %d", da.Q1, da.Q3, da.N),
				db.Median, fmt.Sprintf("[%.5g, %.5g] %d", db.Q1, db.Q3, db.N),
				100*rel, 100*d.Bound, 100*spread, verdict)
		}
	}
	fmt.Fprintf(w, "within %d  worse %d  unresolved %d\n", counts["within"], counts["worse"], counts["unresolved"])
	return nil
}
