// Command experiments regenerates every table and figure of the paper's
// evaluation on synthetic traces and prints them in paper-style form.
//
// Usage:
//
//	experiments [-scale 1.0] [-seed 1] [-shards 1] [-live-days 18] [-only T2,F4,...]
//
// Each section prints under its id: T1–T9 (tables), F3–F11, F12/F13 and
// F14 (figures), XV (cross-vantage multi-source analysis over the
// TRIVANTAGE scenario), SK (sketch-based streaming analytics vs their
// exact references) and A:clist, A:multilabel, A:tagscore (ablations).
// -only takes those ids, case-insensitive; A selects every ablation and
// F12 or F13 selects F12/F13. An id that selects nothing exits with
// status 2; an SK bound violation exits with status 1.
// -shards parallelizes the pipeline runs; results are identical at any
// shard count.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "client-count scale factor (1.0 ≈ a few hundred clients)")
	seed := flag.Uint64("seed", 1, "random seed; same seed reproduces identical traces")
	shards := flag.Int("shards", 1, "parallel pipeline shards (-1 = one per CPU)")
	liveDays := flag.Int("live-days", 18, "live window in days (Figs. 6/10/11, Table 8)")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	flag.Parse()

	selected, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s := experiments.NewSuite(*scale, *seed)
	s.Shards = *shards
	s.LiveDays = *liveDays

	start := time.Now()
	for _, e := range selected {
		r := e.Run(s)
		fmt.Printf("== %s ==\n%s\n", e.ID, r.Text)
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, r.Err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// names lists the ids that select an experiment: its header, each part of
// a joined header ("F12" and "F13" for "F12/F13"), and the group before a
// colon ("A" for "A:clist").
func names(id string) []string {
	out := []string{id}
	if parts := strings.Split(id, "/"); len(parts) > 1 {
		out = append(out, parts...)
	}
	if group, _, ok := strings.Cut(id, ":"); ok {
		out = append(out, group)
	}
	return out
}

// selects reports whether id, in any case, is one of e's names.
func selects(e experiments.Experiment, id string) bool {
	return slices.ContainsFunc(names(e.ID), func(n string) bool { return strings.EqualFold(n, id) })
}

// selectExperiments returns, in print order, the experiments the
// comma-separated ids select (all of them for none), or an error naming
// the first id that selects nothing and listing the valid ones.
func selectExperiments(only string) ([]experiments.Experiment, error) {
	var ids []string
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return experiments.All, nil
	}
	for _, id := range ids {
		if !slices.ContainsFunc(experiments.All, func(e experiments.Experiment) bool { return selects(e, id) }) {
			var valid []string
			for _, e := range experiments.All {
				for _, n := range names(e.ID) {
					if !slices.Contains(valid, n) {
						valid = append(valid, n)
					}
				}
			}
			return nil, fmt.Errorf("-only %s: no such experiment; valid ids: %s", id, strings.Join(valid, " "))
		}
	}
	var out []experiments.Experiment
	for _, e := range experiments.All {
		if slices.ContainsFunc(ids, func(id string) bool { return selects(e, id) }) {
			out = append(out, e)
		}
	}
	return out, nil
}
