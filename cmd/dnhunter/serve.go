// The serve subcommand: run-forever streaming ingestion. Where the
// default batch mode reads a capture, writes one CSV, and exits, serve
// streams until SIGINT/SIGTERM, flushing flows through rolling windows,
// exposing live metrics over HTTP, optionally shedding load instead of
// stalling the reader, and checkpointing resolver state across restarts.
// docs/OPERATIONS.md is the runbook.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	dnhunter "repro"
	"repro/internal/netio"
	"repro/internal/serve"
)

func runServe(args []string) {
	fs := flag.NewFlagSet("dnhunter serve", flag.ExitOnError)
	listen := fs.String("listen", ":8053", "HTTP listen address for /healthz, /metrics, /stats.json")
	pcapPath := fs.String("pcap", "", "input pcap file to stream")
	scenario := fs.String("scenario", "", `synthetic input instead of -pcap: "quick" or a paper capture name (US-3G, EU1-FTTH, ...)`)
	scale := fs.Float64("scale", 1, "client-population scale for -scenario")
	seed := fs.Uint64("seed", 1, "RNG seed for -scenario")
	loop := fs.Int("loop", 1, "replay the input this many times; 0 loops forever")
	speedup := fs.Float64("speedup", 0, "pace replay to the capture timeline at this multiple; 0 replays at full speed")
	window := fs.Duration("window", 5*time.Minute, "flow-store window width (trace time)")
	shed := fs.Bool("shed", false, "shed load instead of stalling the reader when a shard backs up (needs -shards > 1)")
	checkpoint := fs.String("checkpoint", "", "resolver checkpoint file: restored at start, rewritten after a clean drain")
	analyticsOn := fs.Bool("analytics", false, "run the standard streaming analytics queries; adds /analytics.json and top-k gauges to /metrics")
	spool := fs.String("spool", "", "directory receiving one CSV per completed window; empty discards windows")
	shards := fs.Int("shards", 1, "parallel pipeline shards (-1 = one per CPU)")
	clientNets := fs.String("client-nets", "", "comma-separated client CIDRs (e.g. 10.0.0.0/16); orients flows toward these clients")
	clist := fs.Int("clist", 1<<20, "resolver Clist size L (per shard)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain after a stop signal")
	srcRestarts := fs.Int("source-restarts", 0, "supervise the source: restart up to N times on transient read errors (0 disables supervision)")
	srcBackoff := fs.Duration("source-backoff", 50*time.Millisecond, "first restart's nominal backoff, doubling per consecutive restart")
	srcBackoffMax := fs.Duration("source-backoff-max", 5*time.Second, "backoff ceiling for supervised restarts")
	fs.Parse(args)
	if err := checkFlags(fs); err != nil {
		log.Print(err)
		os.Exit(2)
	}

	if (*pcapPath == "") == (*scenario == "") {
		log.Fatal("serve: need exactly one of -pcap or -scenario")
	}

	var src dnhunter.PacketSource
	if *pcapPath != "" {
		in, err := os.Open(*pcapPath)
		if err != nil {
			log.Fatal(err)
		}
		defer in.Close()
		rd, err := netio.NewReader(in)
		if err != nil {
			log.Fatalf("%s: %v", *pcapPath, err)
		}
		if *loop != 1 {
			// Looping needs the packets in memory; drain the reader once.
			pkts, err := readAll(rd)
			if err != nil {
				log.Fatalf("%s: %v", *pcapPath, err)
			}
			src = dnhunter.NewLoopSource(pkts, 0, *loop)
		} else {
			src = rd
		}
	} else {
		var tr *dnhunter.Trace
		if *scenario == "quick" {
			tr = dnhunter.GenerateQuickTrace(*seed)
		} else {
			tr = dnhunter.GenerateTrace(*scenario, *scale, *seed)
		}
		src = dnhunter.NewLoopSource(tr.Packets, 0, *loop)
	}
	if *speedup > 0 {
		src = dnhunter.NewPacedSource(src, *speedup)
	}

	if *spool != "" {
		if err := os.MkdirAll(*spool, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	scfg := dnhunter.ServeConfig{
		Window:         *window,
		Shed:           *shed,
		CheckpointPath: *checkpoint,
		DrainTimeout:   *drainTimeout,
	}
	if *srcRestarts > 0 {
		scfg.Restart = &dnhunter.RestartPolicy{
			MaxRestarts: *srcRestarts,
			BaseBackoff: *srcBackoff,
			MaxBackoff:  *srcBackoffMax,
			Seed:        *seed,
		}
	}
	if dir := *spool; dir != "" {
		scfg.FlushWindow = func(w dnhunter.Window) error {
			return spoolWindow(dir, w)
		}
	}
	var pipe *dnhunter.AnalyticsPipeline
	if *analyticsOn {
		pipe = dnhunter.NewAnalyticsPipeline(dnhunter.StreamingQueries(nil)...)
		scfg.ObserveWindow = pipe.ObserveWindow
	}

	opts := []dnhunter.Option{
		dnhunter.WithShards(*shards),
		dnhunter.WithResolver(dnhunter.ResolverConfig{ClistSize: *clist}),
	}
	if *clientNets != "" {
		var fcfg dnhunter.FlowsConfig
		for _, cidr := range strings.Split(*clientNets, ",") {
			p, err := netip.ParsePrefix(strings.TrimSpace(cidr))
			if err != nil {
				log.Fatalf("-client-nets: %v", err)
			}
			fcfg.ClientNets = append(fcfg.ClientNets, p)
		}
		opts = append(opts, dnhunter.WithFlows(fcfg))
	}
	eng := dnhunter.NewEngine(opts...)
	srv := eng.Server(scfg)

	ms := serve.New(serve.Config{Listen: *listen, Metrics: srv.Metrics(), Analytics: pipe})
	httpErrs := make(chan error, 1)
	if err := ms.Start(httpErrs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving on http://%s (shards=%d window=%v shed=%v)\n",
		ms.Addr(), eng.Shards(), *window, *shed)

	// SIGINT/SIGTERM trigger the graceful drain, not an abort.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := srv.Serve(ctx, src)
	if err != nil {
		log.Fatal(err)
	}

	sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ms.Shutdown(sdCtx); err != nil {
		log.Printf("metrics shutdown: %v", err)
	} else if err := <-httpErrs; err != nil {
		log.Printf("metrics server: %v", err)
	}

	fmt.Printf("drained: %d packets, %d flows (%d labeled), %d windows\n",
		rep.Packets, rep.Stats.Flows, rep.Stats.LabeledFlows, rep.Windows)
	if rep.Dropped.Flows+rep.Dropped.DNS > 0 {
		fmt.Printf("shed: %d flow entries, %d dns entries, %d bytes\n",
			rep.Dropped.Flows, rep.Dropped.DNS, rep.Dropped.Bytes)
	}
	if rep.SourceRestarts > 0 {
		fmt.Printf("degraded: source restarted %d times (transient errors recovered)\n",
			rep.SourceRestarts)
	}
	if *checkpoint != "" {
		if rep.FreshStart != "" {
			fmt.Printf("checkpoint: rejected (%s); started fresh\n", rep.FreshStart)
		}
		fmt.Printf("checkpoint: restored %d entries, wrote %d to %s\n",
			rep.RestoredEntries, rep.CheckpointedEntries, *checkpoint)
	}
	if pipe != nil {
		fmt.Printf("analytics: observed %d flows across %s\n",
			pipe.Observed(), strings.Join(pipe.Names(), ", "))
	}
}

// readAll drains a packet source into memory (for -loop over a pcap).
func readAll(src dnhunter.PacketSource) ([]dnhunter.Packet, error) {
	var pkts []dnhunter.Packet
	for {
		p, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return pkts, nil
			}
			return pkts, err
		}
		// Sources reuse their read buffer; looping needs stable copies.
		p.Data = append([]byte(nil), p.Data...)
		pkts = append(pkts, p)
	}
}

// spoolWindow writes one completed window as CSV into dir, named by the
// window index and its trace-time bounds.
func spoolWindow(dir string, w dnhunter.Window) error {
	name := fmt.Sprintf("window-%06d-%ds-%ds.csv", w.Index,
		int(w.Start.Seconds()), int(w.End.Seconds()))
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := w.DB.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
