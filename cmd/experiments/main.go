// Command experiments regenerates every table and figure of the paper's
// evaluation on synthetic traces and prints them in paper-style form.
//
// Usage:
//
//	experiments [-scale 1.0] [-seed 1] [-shards 1] [-live-days 18] [-only T2,F4,...]
//
// Experiment ids: T1–T9 (tables), F3–F14 (figures), XV (cross-vantage
// multi-source analysis over the TRIVANTAGE scenario), SK (sketch-based
// streaming analytics vs their exact references), A (ablations).
// -shards parallelizes the pipeline runs; results are identical at any
// shard count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "client-count scale factor (1.0 ≈ a few hundred clients)")
	seed := flag.Uint64("seed", 1, "random seed; same seed reproduces identical traces")
	shards := flag.Int("shards", 1, "parallel pipeline shards (-1 = one per CPU)")
	liveDays := flag.Int("live-days", 18, "event-mode live window in days (Figs. 6/10/11, Table 8)")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	flag.Parse()

	s := experiments.NewSuite(*scale, *seed)
	s.Shards = *shards
	s.LiveDays = *liveDays

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if id != "" {
			want[id] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }
	section := func(id, out string) {
		fmt.Printf("== %s ==\n%s\n", id, out)
	}

	start := time.Now()
	if run("T1") {
		section("T1", s.Table1())
	}
	if run("T2") {
		section("T2", s.Table2())
	}
	if run("T3") {
		out, _ := s.Table3()
		section("T3", out)
	}
	if run("T4") {
		out, _ := s.Table4()
		section("T4", out)
	}
	if run("T5") {
		section("T5", s.Table5())
	}
	if run("T6") {
		section("T6", s.Table6())
	}
	if run("T7") {
		section("T7", s.Table7())
	}
	if run("T8") {
		out, _ := s.Table8()
		section("T8", out)
	}
	if run("T9") {
		section("T9", s.Table9())
	}
	if run("F3") {
		out, _, _ := s.Figure3()
		section("F3", out)
	}
	if run("F4") {
		out, _ := s.Figure4()
		section("F4", out)
	}
	if run("F5") {
		out, _ := s.Figure5()
		section("F5", out)
	}
	if run("F6") {
		out, _ := s.Figure6()
		section("F6", out)
	}
	if run("F7") {
		out, _ := s.Figure7()
		section("F7", out)
	}
	if run("F8") {
		out, _ := s.Figure8()
		section("F8", out)
	}
	if run("F9") {
		out, _ := s.Figure9()
		section("F9", out)
	}
	if run("F10") {
		out, _ := s.Figure10()
		section("F10", out)
	}
	if run("F11") {
		out, _ := s.Figure11()
		section("F11", out)
	}
	if run("F12") || run("F13") {
		out, _ := s.Figure12And13()
		section("F12/F13", out)
	}
	if run("F14") {
		out, _ := s.Figure14()
		section("F14", out)
	}
	if run("XV") {
		out, _ := s.CrossVantage()
		section("XV", out)
	}
	if run("SK") {
		out, ok := s.SketchVsExact()
		section("SK", out)
		if !ok {
			fmt.Fprintln(os.Stderr, "SK: sketch results outside documented error bounds")
			os.Exit(1)
		}
	}
	if run("A") {
		out, _ := s.AblationClistSize([]int{64, 1024, 16384, 1 << 18})
		section("A:clist", out)
		abl, _, _ := s.AblationMultiLabel()
		section("A:multilabel", abl)
		section("A:tagscore", s.AblationTagScore(25))
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}
