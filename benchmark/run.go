package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// measurement is one metric of one run: the run's value (a median where
// the run took several samples), its unit, and how steady it was.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// runResult is one run of one workload: the driver's record plus detail.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Smoke   bool
	// OutDir receives the span files and the serve checkpoint.
	OutDir string
}

// setupRounds is how many times an end-to-end run generates its trace:
// set-up is reported as the median of the rounds so one slow allocation or
// page fault storm does not decide it. The traced pass reports no set-up
// time and generates once.
const setupRounds = 3

// runWorkload sets the workload up from the seed, measures it for about
// cfg.Seconds, checks its outputs and returns every metric of the pass:
// the end-to-end ones with tracing off, or the per-layer ones.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*runResult, error) {
	sz, minReps := fullSizes, 3
	if cfg.Smoke {
		sz, minReps = smokeSizes, 1
	}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	// closed is the time closed-loop replays may fill once the minimum
	// count is done; a smoke run stops at the minimum.
	closed := budget
	if cfg.Smoke {
		closed = 0
	}

	// Set-up: generate the inputs (setupRounds times, median) and run the
	// warm-up replay that fills the runtime's caches and sizes the
	// benchmark's own buffers.
	var (
		in  *input
		gen []float64
		err error
	)
	rounds := setupRounds
	if cfg.Trace {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if in, err = w.generate(cfg.Seed, sz); err != nil {
			return nil, err
		}
		gen = append(gen, time.Since(t0).Seconds())
	}
	// The warm-up is the batch replay even for serve-ftth: its trace is a
	// batch trace, and the reference counters come from it.
	batch := *w
	batch.Serve = false
	b := &batchRunner{w: &batch, in: in}
	t0 := time.Now()
	warm, _, err := b.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up replay: %w", w.Name, err)
	}
	setup := summarize(gen)
	warmS := time.Since(t0).Seconds()
	setup.Median, setup.Q1, setup.Q3 = setup.Median+warmS, setup.Q1+warmS, setup.Q3+warmS

	var (
		dists map[string]dist
		o     *outcome
		decls = endToEnd
	)
	switch {
	case cfg.Trace:
		decls = perLayer
		tr := newTracer(w.Name)
		// A stage repeats itself (up to five passes) within its share of
		// the budget; a smoke run makes one pass of each.
		share := budget / 16
		if cfg.Smoke {
			share = 0
		}
		if w.Serve {
			dists, o, err = servePass(ctx, tr, w, in, b, share/2, budget/8, cfg.OutDir)
		} else {
			dists, o, err = layerPass(ctx, tr, w, in, b, share)
		}
		if err == nil {
			err = tr.write(cfg.OutDir)
		}
	case w.Serve:
		dists, o, err = measureServe(ctx, w, in, closed*40/100, budget*35/100, budget*25/100, minReps, cfg.OutDir)
	default:
		dists, o, err = measureBatch(ctx, b, warm, closed, minReps)
	}
	if err != nil {
		return nil, err
	}
	dists["setup_s"] = setup
	// The warm-up replay is checked like any other.
	b.checkReplay(o, warm, warm)

	res := &runResult{
		Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace,
		Attempted: o.Attempted, Failed: o.Failed, Correct: o.Failed == 0,
		Metrics: make(map[string]measurement, len(decls)),
		Notes:   o.Notes,
	}
	// Every declared metric of the pass is emitted; a per-layer metric the
	// workload never exercises reads 0.
	for _, d := range decls {
		v := dists[d.Name]
		res.Metrics[d.Name] = measurement{Value: v.Median, Unit: d.Unit, Q1: v.Q1, Q3: v.Q3, N: v.N}
	}
	return res, nil
}

// printResult lists a run's metrics by name with their units.
func printResult(r *runResult) {
	pass := "end-to-end, tracing off"
	if r.Trace {
		pass = "per-layer, traced pass"
	}
	fmt.Printf("== %s  seed %d  (%s)\n", r.Workload, r.Seed, pass)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("  %-34s %16.6g %-7s", name, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Printf("  q1 %.6g  q3 %.6g  n %d", m.Q1, m.Q3, m.N)
		}
		fmt.Println()
	}
	fmt.Printf("  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Printf("  FAILED: %s\n", n)
	}
}
