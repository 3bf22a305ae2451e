// Command benchmark is the repository's yardstick: five named workloads
// over the Fig. 1 pipeline, end-to-end metrics taken with tracing off, and
// a separate traced pass that replays recorded inputs through each
// layer's exported functions. See README.md in this directory.
//
// The driver's form measures one workload in one pass and ends with one
// JSON line:
//
//	benchmark --workload batch-wide --seed 3 --seconds 12 --trace 0
//
// Without -workload it runs every workload in both passes. -out appends
// the invocation's runs to a result file, so a loop over seeds builds the
// ten-run sets that -compare reads (calibrate.sh is that loop):
//
//	benchmark -seed 1 -out results/seed-1-a.json
//	benchmark -compare results/seed-1-a.json results/seed-1-b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
)

// procs is the parallelism every number is taken at: the reference box has
// two cores, no workload uses more than two shards, and the load generator
// runs on the engine's own reader goroutine.
const procs = 2

// defaultSeconds is BENCHMARK.json's run_seconds; smokeSeconds keeps a
// smoke run's open-loop rungs at about 0.2 s each.
const (
	defaultSeconds = 12
	smokeSeconds   = 0.8
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, both passes)")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", defaultSeconds, "measuring time per run")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end pass (tracing off), 1 = traced per-layer pass")
		smoke   = flag.Bool("smoke", false, "tiny inputs and one replay: exercises the harness, measures nothing")
		out     = flag.String("out", "", "append every run of this invocation to this JSON result file")
		outDir  = flag.String("outdir", "benchmark/out", "directory for span files and scratch state")
		compare = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *smoke && *seconds == defaultSeconds {
		*seconds = smokeSeconds
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	file := resultFile{Meta: readMeta(*seconds, *smoke)}
	if *out != "" {
		if prev, err := readResultFile(*out); err == nil {
			file.Runs = prev.Runs
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}
	one := func(w *workload, seed uint64, traced bool) *runResult {
		r, err := runWorkload(ctx, w, runConfig{Seed: seed, Seconds: *seconds, Trace: traced, Smoke: *smoke, OutDir: *outDir})
		if err != nil {
			fatal(err)
		}
		printResult(r)
		file.Runs = append(file.Runs, r)
		return r
	}
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		r := one(w, *seed, *trace != 0)
		save(*out, &file)
		// The driver reads the last line of standard output.
		line, err := json.Marshal(driverLine(r))
		if err != nil {
			fatal(err)
		}
		// A run that failed its checks still ends normally: the record's
		// "correct" and "failed" carry the verdict to the driver.
		fmt.Println(string(line))
		return
	}
	ok := true
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			ok = one(&workloads[i], *seed, traced).Correct && ok
		}
		save(*out, &file) // keep what is done if a later run is interrupted
	}
	if !ok {
		fatal(fmt.Errorf("a run failed its correctness checks"))
	}
}

func save(path string, f *resultFile) {
	if path == "" {
		return
	}
	if err := f.write(path); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
