// Command dnhunter runs the real-time sniffer pipeline over pcap captures:
// it decodes DNS responses into the resolver (the clients' cache replica),
// reconstructs and tags flows, and writes the labeled flow database as CSV.
// With -shards > 1 packets are hashed by client address onto parallel
// pipeline shards; the labeled flows and statistics are identical to a
// single-threaded run (CSV row order may differ).
//
// A single capture:
//
//	dnhunter -pcap trace.pcap -out flows.csv [-shards 8] [-clist 1048576] [-stats]
//
// Multiple vantage points in one run (the paper's multi-deployment
// analysis): repeat -trace with name=path pairs. Each vantage runs its own
// pipeline concurrently; the CSV's vantage column records which capture
// each flow came from, and statistics print per vantage plus aggregate.
//
//	dnhunter -trace US=us.pcap -trace EU1=eu1.pcap -trace EU2=eu2.pcap -out flows.csv
//
// Streaming service mode (run-forever ingestion with windowed output, an
// HTTP metrics endpoint, overload shedding, and resolver checkpointing —
// see docs/OPERATIONS.md):
//
//	dnhunter serve -listen :8053 -pcap trace.pcap -loop 0 [-window 5m] [-shed] [-checkpoint clist.ckpt]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	dnhunter "repro"
	"repro/internal/flows"
	"repro/internal/netio"
)

// traceFlag collects repeatable -trace name=path arguments.
type traceFlag struct {
	names []string
	paths []string
}

func (t *traceFlag) String() string { return strings.Join(t.names, ",") }

func (t *traceFlag) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	t.names = append(t.names, name)
	t.paths = append(t.paths, path)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dnhunter: ")
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	pcapPath := flag.String("pcap", "", "input pcap file (single-vantage mode)")
	var traces traceFlag
	flag.Var(&traces, "trace", "named vantage capture as name=path; repeat for multi-vantage runs")
	outPath := flag.String("out", "flows.csv", "output CSV of labeled flows")
	shards := flag.Int("shards", 1, "parallel pipeline shards per vantage (-1 = one per CPU)")
	clist := flag.Int("clist", 1<<20, "resolver Clist size L (per shard)")
	showStats := flag.Bool("stats", true, "print pipeline statistics")
	flag.Parse()
	if err := checkFlags(flag.CommandLine); err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if *pcapPath == "" && len(traces.names) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *pcapPath != "" && len(traces.names) > 0 {
		log.Fatal("use either -pcap or -trace, not both")
	}

	// Ctrl-C cancels the run instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []dnhunter.Option{
		dnhunter.WithShards(*shards),
		dnhunter.WithResolver(dnhunter.ResolverConfig{ClistSize: *clist}),
	}
	open := func(path string) *netio.Reader {
		in, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		// The process exits right after the run; readers stay open for it.
		src, err := netio.NewReader(in)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		return src
	}

	var (
		res            *dnhunter.Result
		perVantage     map[string]*dnhunter.Result
		order          []string
		resolvedShards int
	)
	if *pcapPath != "" {
		eng := dnhunter.NewEngine(opts...)
		resolvedShards = eng.Shards()
		r, err := eng.Run(ctx, open(*pcapPath))
		if err != nil {
			log.Fatal(err)
		}
		res = r
	} else {
		sources := make([]dnhunter.NamedSource, len(traces.names))
		for i, name := range traces.names {
			sources[i] = dnhunter.NamedSource{Name: name, Src: open(traces.paths[i])}
		}
		eng := dnhunter.NewEngine(opts...)
		resolvedShards = eng.Shards()
		multi, err := eng.RunSources(ctx, sources...)
		if err != nil {
			log.Fatal(err)
		}
		res = &dnhunter.Result{DB: multi.DB, Stats: multi.Stats}
		perVantage = multi.PerVantage
		order = multi.Vantages
	}

	out, err := os.Create(*outPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.DB.WriteCSV(out); err != nil {
		log.Fatal(err)
	}
	if err := out.Close(); err != nil {
		log.Fatal(err)
	}

	if *showStats {
		for _, name := range order {
			fmt.Printf("[%s]\n", name)
			printStats(os.Stdout, perVantage[name])
		}
		if len(order) > 0 {
			fmt.Printf("[aggregate]\n")
		}
		printStats(os.Stdout, res)
	}
	fmt.Printf("wrote %s (%d flows, %d shards)\n", *outPath, res.DB.Len(), resolvedShards)
}

// flagBounds are the values the numeric flags accept. Out of range, the
// engine would silently remap them: a Clist of -5 to the default size, a
// negative shard count to one per CPU, -loop -2 to looping forever.
var flagBounds = []struct {
	name string
	ok   func(v float64) bool
	want string
}{
	{"clist", func(v float64) bool { return v >= 1 }, "at least 1"},
	{"shards", func(v float64) bool { return v >= -1 }, "at least -1 (one per CPU)"},
	{"loop", func(v float64) bool { return v >= 0 }, "at least 0 (forever)"},
	{"window", func(v float64) bool { return v > 0 }, "positive"},
	{"speedup", func(v float64) bool { return v >= 0 }, "at least 0 (full speed)"},
	{"source-restarts", func(v float64) bool { return v >= 0 }, "at least 0 (no supervision)"},
}

// checkFlags rejects out-of-range values of the numeric flags fs defines;
// batch mode and serve share it.
func checkFlags(fs *flag.FlagSet) error {
	for _, b := range flagBounds {
		f := fs.Lookup(b.name)
		if f == nil {
			continue
		}
		var v float64
		switch x := f.Value.(flag.Getter).Get().(type) {
		case int:
			v = float64(x)
		case float64:
			v = x
		case time.Duration:
			v = float64(x)
		}
		if !b.ok(v) {
			return fmt.Errorf("-%s %s: must be %s", b.name, f.Value, b.want)
		}
	}
	return nil
}

func printStats(w io.Writer, res *dnhunter.Result) {
	st := res.Stats
	fmt.Fprintf(w, "packets: %d frames (%d TCP, %d UDP, %d malformed)\n",
		st.Parser.Frames, st.Parser.TCPSegments, st.Parser.UDPDatagram, st.Parser.Malformed)
	fmt.Fprintf(w, "dns: %d responses (%d empty, %d malformed), useless %.0f%%\n",
		st.DNSResponses, st.DNSResponsesEmpty, st.DNSMalformed, 100*st.UselessDNSFraction())
	fmt.Fprintf(w, "resolver: %s\n", st.Resolver)
	fmt.Fprintf(w, "flows: %d total, %d labeled (%.1f%%)\n",
		st.Flows, st.LabeledFlows, 100*float64(st.LabeledFlows)/float64(max(st.Flows, 1)))
	cov := res.DB.Coverage(0)
	for _, p := range []flows.L7Proto{flows.L7HTTP, flows.L7TLS, flows.L7P2P, flows.L7Unknown} {
		if cov.Total[p] > 0 {
			fmt.Fprintf(w, "  %-5s %6d flows, %5.1f%% labeled\n", p, cov.Total[p], 100*cov.Ratio(p))
		}
	}
}
