package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	dnhunter "repro"
	"repro/internal/netio"
	"repro/internal/serve"
)

// serveSpec is one Engine.Serve run: a closed-loop segment (Rate == 0,
// ended after Packets packets) or an open-loop rung (Rate > 0, ended after
// Duration of wall time).
type serveSpec struct {
	Rate     float64
	Packets  int64
	Duration time.Duration
	// Observe polls ring depths and scrapes the HTTP handlers at 10 Hz
	// while serving (traced pass only: the scrape stops the world).
	Observe bool
	// Dir holds the checkpoint file.
	Dir string
}

// serveRun is what one Serve run measured.
type serveRun struct {
	wall, drain, cpu    time.Duration
	released            int64 // packets the engine had pulled when told to stop
	mallocs, allocBytes uint64
	heapGrowth          int64
	report              *dnhunter.ServeReport
	accuracy            float64
	truthFlows          int
	// Open loop only, microseconds, sorted.
	tagLat           []float64
	lagEarly, lagEnd float64 // median source lag, first and last quarter
	lagP99           float64
	delivered        float64
	ringDepthMax     int
	scrapeUs, jsonUs []float64
	blocks           netio.BlockPoolStats
	readers          []dnhunter.ReaderStat
}

// shedTotal is every entry or frame the run dropped under overload.
func (r *serveRun) shedTotal() uint64 {
	n := r.report.Dropped.Flows + r.report.Dropped.DNS
	for _, rs := range r.readers {
		n += rs.ShedFrames
	}
	return n
}

// runServe serves the workload's trace once under spec and returns when
// Serve has drained.
func runServe(ctx context.Context, w *workload, in *input, spec serveSpec) (*serveRun, error) {
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return nil, err
	}
	ckpt := filepath.Join(spec.Dir, "clist.ckpt")
	// Every run starts from empty resolver state, so runs are independent.
	if err := os.Remove(ckpt); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	defer os.Remove(ckpt)

	pipe := dnhunter.NewAnalyticsPipeline(dnhunter.StreamingQueries(in.Orgs)...)
	var acc truthCount
	scfg := dnhunter.ServeConfig{
		Window: 5 * time.Minute,
		// A closed loop needs back-pressure to be one: with shedding on,
		// an unpaced reader outruns the shards and drops instead of
		// waiting. Open-loop rungs shed, as a live capture must.
		Shed:          spec.Rate > 0,
		ObserveWindow: pipe.ObserveWindow,
		FlushWindow: func(win dnhunter.Window) error {
			acc.add(win.DB)
			return win.DB.WriteCSV(io.Discard)
		},
		CheckpointPath: ckpt,
	}
	sink := &tagSink{
		ts:   make([]time.Duration, 0, 1<<20),
		wall: make([]time.Duration, 0, 1<<20),
	}
	srv := dnhunter.NewEngine(w.engineOptions(in, sink)...).Server(scfg)

	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	pool0 := netio.DefaultBlockPool().Stats()

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	src := newPacedSource(in.Packets, spec.Rate)
	src.stopAfter, src.stopAt, src.onStop = spec.Packets, spec.Duration, cancel
	if spec.Rate > 0 {
		src.pulls = make([]pull, 0, min(int64(spec.Rate*spec.Duration.Seconds()*1.05), 3<<20))
	}
	sink.reset(src.start)
	run := &serveRun{}

	var obs sync.WaitGroup
	obsDone := make(chan struct{})
	if spec.Observe {
		h := serve.New(serve.Config{Metrics: srv.Metrics(), Analytics: pipe}).Handler()
		obs.Add(1)
		go func() {
			defer obs.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-obsDone:
					return
				case <-tick.C:
				}
				for _, d := range srv.Metrics().RingDepths() {
					run.ringDepthMax = max(run.ringDepthMax, d)
				}
				run.scrapeUs = append(run.scrapeUs, timeRequest(h, "/metrics"))
				run.jsonUs = append(run.jsonUs, timeRequest(h, "/stats.json"))
			}
		}()
	}

	cpu0 := cpuTime()
	rep, err := srv.Serve(sctx, src)
	end := time.Since(src.start)
	run.cpu = cpuTime() - cpu0
	close(obsDone)
	obs.Wait()
	if err != nil {
		return nil, fmt.Errorf("%s: Serve at %.0f pkts/s: %w", w.Name, spec.Rate, err)
	}
	runtime.ReadMemStats(&m1)
	pool1 := netio.DefaultBlockPool().Stats()
	// What a serving engine pins: the Server (its shard pipelines, hence
	// the Clists and flow tables) is still referenced here.
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(srv)

	run.report = rep
	run.wall = src.stoppedAt
	run.released = src.releasedAtStop
	run.drain = end - src.stoppedAt
	run.mallocs = m1.Mallocs - m0.Mallocs
	run.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	run.heapGrowth = int64(m2.HeapInuse) - int64(m0.HeapInuse)
	run.accuracy, run.truthFlows = acc.ratio(), acc.with
	run.readers = srv.Metrics().ReaderStats()
	run.blocks = poolDelta(pool0, pool1)
	if spec.Rate > 0 {
		run.openLoop(src, sink)
	}
	return run, nil
}

// openLoop derives the open-loop figures of a rung: tag latency timed from
// when each flow's first packet was due, source lag (due → pulled), and
// the share of the offered packets the engine processed.
func (r *serveRun) openLoop(src *pacedSource, sink *tagSink) {
	// Packets due by the final read that were never pulled are lost too.
	offered := max(src.offeredAtEnd, src.released)
	shed := r.shedTotal()
	r.delivered = float64(uint64(src.released)-shed) / float64(offered)

	lat := make([]float64, 0, len(sink.ts)+int(shed))
	for i, ts := range sink.ts {
		due := src.dueAt(src.indexOf(ts))
		lat = append(lat, us(sink.wall[i]-due))
	}
	// A shed packet may have been a flow's first: count each as a tag that
	// missed the limit, at twice the limit.
	for i := uint64(0); i < shed; i++ {
		lat = append(lat, 2*us(tagLimit))
	}
	sort.Float64s(lat)
	r.tagLat = lat

	q := src.stoppedAt / 4
	early := src.lagsUs(0, q)
	late := src.lagsUs(src.stoppedAt-q, src.stoppedAt)
	all := src.lagsUs(0, math.MaxInt64) // reads after the stop signal included
	sort.Float64s(early)
	sort.Float64s(late)
	sort.Float64s(all)
	r.lagEarly, r.lagEnd = percentile(early, 50), percentile(late, 50)
	r.lagP99 = tailPercentile(all)
}

// sustained reports whether an open-loop rung kept up: nothing shed, the
// tail of tag latency inside the limit, and no backlog building in the
// source (lag in the last quarter at most 1 ms above the first quarter's).
func (r *serveRun) sustained() bool {
	return r.shedTotal() == 0 &&
		len(r.tagLat) > 0 && tailPercentile(r.tagLat) <= us(tagLimit) &&
		r.lagEnd-r.lagEarly <= 1000
}

// check verifies a serve run's accounting: every packet read was parsed or
// counted as shed at ingress, and flows came out labeled.
func (r *serveRun) check(o *outcome, w *workload, spec serveSpec) {
	var shedFrames uint64
	for _, rs := range r.readers {
		shedFrames += rs.ShedFrames
	}
	read := r.report.Packets
	ok := r.report.Stats.Parser.Frames+shedFrames == read && read >= uint64(r.released) &&
		r.report.Stats.Flows > 0 && r.truthFlows > 0 && r.report.CheckpointedEntries > 0
	o.check(ok, "%s at %.0f pkts/s: read %d parsed %d shed-frames %d flows %d truth-flows %d checkpointed %d",
		w.Name, spec.Rate, read, r.report.Stats.Parser.Frames, shedFrames,
		r.report.Stats.Flows, r.truthFlows, r.report.CheckpointedEntries)
}

// timeRequest drives one in-process GET through h and returns its
// duration in microseconds.
func timeRequest(h http.Handler, path string) float64 {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return us(time.Since(t0))
}

// measureServe is the end-to-end pass of serve-ftth. Phase A: closed-loop
// segments of two passes each (throughput, CPU, allocation, heap, label
// accuracy). Phase B: the 500k pkts/s rung (tag latency). Phase C:
// the top rung (delivered ratio under overload). Every server is fresh and
// every phase ends with cancel → drain.
func measureServe(ctx context.Context, w *workload, in *input, segments, latency, overload time.Duration, minSegments int, dir string) (map[string]dist, *outcome, error) {
	var (
		o                                  outcome
		pps, cpu, allocs, bytes, heap, acc []float64
	)
	seg := serveSpec{Packets: 2 * int64(len(in.Packets)), Dir: dir}
	deadline := time.Now().Add(segments)
	for n := 0; n < minSegments || time.Now().Before(deadline); n++ {
		r, err := runServe(ctx, w, in, seg)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			o.Attempted++
			o.fail("segment %d: %v", n, err)
			continue
		}
		r.check(&o, w, seg)
		o.check(r.shedTotal() == 0, "%s: closed-loop segment shed %d entries", w.Name, r.shedTotal())
		npk := float64(r.report.Packets)
		pps = append(pps, float64(r.released)/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu)/npk)
		allocs = append(allocs, float64(r.mallocs)/npk)
		bytes = append(bytes, float64(r.allocBytes)/npk)
		heap = append(heap, float64(r.heapGrowth)/1e6)
		acc = append(acc, r.accuracy)
	}
	if len(pps) == 0 {
		return nil, &o, fmt.Errorf("%s: no closed-loop segment succeeded", w.Name)
	}

	lat := serveSpec{Rate: rungs[latencyRung].PPS, Duration: latency, Dir: dir}
	rl, err := runServe(ctx, w, in, lat)
	if err != nil {
		return nil, &o, err
	}
	rl.check(&o, w, lat)

	top := serveSpec{Rate: rungs[topRung].PPS, Duration: overload, Dir: dir}
	rt, err := runServe(ctx, w, in, top)
	if err != nil {
		return nil, &o, err
	}
	rt.check(&o, w, top)

	one := func(v float64) dist { return dist{Median: v, Q1: v, Q3: v, N: 1} }
	return map[string]dist{
		"pkts_per_s":          summarize(pps),
		"cpu_ns_per_pkt":      summarize(cpu),
		"allocs_per_pkt":      summarize(allocs),
		"alloc_bytes_per_pkt": summarize(bytes),
		"heap_growth_mb":      summarize(heap),
		"label_accuracy":      summarize(acc),
		"tag_latency_p50_us":  one(percentile(rl.tagLat, 50)),
		"delivered_ratio":     one(rt.delivered),
	}, &o, nil
}
