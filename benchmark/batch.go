package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	dnhunter "repro"
	"repro/internal/netio"
)

// tagSink timestamps every first-packet tag: the benchmark's stand-in for
// the policy enforcer of the paper's §3, the consumer the label exists for.
type tagSink struct {
	dnhunter.NopSink
	start time.Time
	ts    []time.Duration // TagEvent.At: the first packet's trace timestamp
	wall  []time.Duration // wall offset of the OnTag call
}

func (s *tagSink) OnTag(ev dnhunter.TagEvent) {
	s.ts = append(s.ts, ev.At)
	s.wall = append(s.wall, time.Since(s.start))
}

func (s *tagSink) reset(start time.Time) {
	s.start, s.ts, s.wall = start, s.ts[:0], s.wall[:0]
}

// checkStats are the counters every replay of one workload must reproduce.
type checkStats struct {
	Flows, Labeled, DNS, Hits, Frames uint64
}

func statsOf(s dnhunter.Stats) checkStats {
	return checkStats{s.Flows, s.LabeledFlows, s.DNSResponses, s.Resolver.Hits, s.Parser.Frames}
}

// replay is what one timed pass over a batch trace measured.
type replay struct {
	wall, cpu, drain    time.Duration
	mallocs, allocBytes uint64
	heapGrowth          int64
	stats               checkStats
	accuracy            float64
	truthFlows          int
	tagP50, tagP99      float64
	readers             []dnhunter.ReaderStat
	blocks              netio.BlockPoolStats // pool deltas around the run
}

// batchRunner replays one batch workload. Its log and sink buffers are
// reused across replays, so after the warm-up they add no allocation to
// the measured region.
type batchRunner struct {
	w    *workload
	in   *input
	log  pullLog
	sink tagSink
}

// run replays the trace once through a fresh engine. The timed region is
// exactly Engine.Run; GC and MemStats reads happen outside it.
func (b *batchRunner) run(ctx context.Context) (*replay, *dnhunter.Result, error) {
	eng := dnhunter.NewEngine(b.w.engineOptions(b.in, &b.sink)...)
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	pool0 := netio.DefaultBlockPool().Stats()
	b.log.reset()
	src := newReplaySource(b.in.Packets, &b.log)
	b.sink.reset(src.start)
	cpu0 := cpuTime()
	res, err := eng.Run(ctx, src)
	wall := time.Since(src.start)
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&m1)
	pool1 := netio.DefaultBlockPool().Stats()
	// What the engine pins: the Result (flow DB, stats) is still referenced
	// here; the per-run resolver, flow table and rings are already garbage.
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r := &replay{
		wall:       wall,
		cpu:        cpu,
		drain:      wall - src.eofAt,
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		heapGrowth: int64(m2.HeapInuse) - int64(m0.HeapInuse),
		stats:      statsOf(res.Stats),
		readers:    res.Readers,
		blocks:     poolDelta(pool0, pool1),
	}
	var acc truthCount
	acc.add(res.DB)
	r.accuracy, r.truthFlows = acc.ratio(), acc.with
	lat := make([]float64, len(b.sink.ts))
	for i, ts := range b.sink.ts {
		at := b.sink.wall[i]
		lat[i] = us(at - b.log.pulledBefore(ts, at))
	}
	sort.Float64s(lat)
	r.tagP50 = percentile(lat, 50)
	r.tagP99 = tailPercentile(lat)
	return r, res, nil
}

// truthCount scores labels against ground truth: flows whose label equals
// their truth over flows that have one.
type truthCount struct{ with, ok int }

func (c *truthCount) add(db *dnhunter.FlowDB) {
	for i, n := 0, db.Len(); i < n; i++ {
		f := db.At(i)
		if f.Truth == "" {
			continue
		}
		c.with++
		if f.Label == f.Truth {
			c.ok++
		}
	}
}

func (c *truthCount) ratio() float64 {
	if c.with == 0 {
		return 0
	}
	return float64(c.ok) / float64(c.with)
}

// poolDelta is what happened in the shared block pool between two reads
// of its counters.
func poolDelta(before, after netio.BlockPoolStats) netio.BlockPoolStats {
	return netio.BlockPoolStats{
		Gets: after.Gets - before.Gets, Allocs: after.Allocs - before.Allocs,
		Retired: after.Retired - before.Retired, RetireNs: after.RetireNs - before.RetireNs,
	}
}

// us is d in microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// outcome accumulates one run's verdict: how many checked operations were
// attempted, how many failed, and why.
type outcome struct {
	Attempted, Failed int
	Notes             []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.fail(format, args...)
	}
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Notes) < 20 {
		o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
	}
}

// checkReplay verifies one replay against the first of its workload and
// against the trace: same counters, every frame parsed, plausible labels.
func (b *batchRunner) checkReplay(o *outcome, r *replay, first *replay) {
	ok := r.stats == first.stats && r.stats.Frames == uint64(len(b.in.Packets)) && r.truthFlows > 0
	if b.in.Exact {
		ok = ok && r.accuracy == 1
	}
	o.check(ok, "%s: replay stats %+v accuracy %.6f over %d flows (first replay %+v, %d packets)",
		b.w.Name, r.stats, r.accuracy, r.truthFlows, first.stats, len(b.in.Packets))
}

// measureBatch is the end-to-end pass of a batch workload: replays until
// budget is spent (at least three), every metric the median over replays.
func measureBatch(ctx context.Context, b *batchRunner, warm *replay, budget time.Duration, minReplays int) (map[string]dist, *outcome, error) {
	var (
		o                                  outcome
		pps, cpu, allocs, bytes, heap, acc []float64
		p50, delivered                     []float64
	)
	w, npk := b.w, float64(len(b.in.Packets))
	deadline := time.Now().Add(budget)
	for n := 0; n < minReplays || time.Now().Before(deadline); n++ {
		r, _, err := b.run(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			o.Attempted++
			o.fail("%s: replay %d: %v", w.Name, n, err)
			continue
		}
		b.checkReplay(&o, r, warm)
		pps = append(pps, npk/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu)/npk)
		allocs = append(allocs, float64(r.mallocs)/npk)
		bytes = append(bytes, float64(r.allocBytes)/npk)
		heap = append(heap, float64(r.heapGrowth)/1e6)
		acc = append(acc, r.accuracy)
		p50 = append(p50, r.tagP50)
		// A batch run blocks rather than sheds: every frame read is parsed.
		delivered = append(delivered, float64(r.stats.Frames)/npk)
	}
	if len(pps) == 0 {
		return nil, &o, fmt.Errorf("%s: no replay succeeded", w.Name)
	}
	return map[string]dist{
		"pkts_per_s":          summarize(pps),
		"cpu_ns_per_pkt":      summarize(cpu),
		"allocs_per_pkt":      summarize(allocs),
		"alloc_bytes_per_pkt": summarize(bytes),
		"heap_growth_mb":      summarize(heap),
		"label_accuracy":      summarize(acc),
		"tag_latency_p50_us":  summarize(p50),
		"delivered_ratio":     summarize(delivered),
	}, &o, nil
}
