package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	dnhunter "repro"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
	"repro/internal/resolver"
)

// The traced pass. It never looks inside the program: it records the
// inputs each layer sees on one pass over the trace, then times each
// layer's exported functions alone over those inputs, in chunks of
// chunkItems, one span per chunk. End-to-end numbers are never taken here;
// the spans live in memory and are written out when the pass ends.

const chunkItems = 4096

// span is one timed interval: a stage over the whole recording, or one
// chunk of it. Parent is the ID of the span that caused it (-1 for the
// pass's root span); Count is the items processed inside it.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Count    int    `json:"count"`
}

type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	// chunks disables the per-chunk spans (the tracing-overhead check
	// compares a stage with and without them).
	chunks bool
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<16), chunks: true}
	t.begin(workload, -1)
	return t
}

func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Workload: t.workload})
	return id
}

func (t *tracer) end(id, count int) time.Duration {
	s := &t.spans[id]
	s.End, s.Count = int64(time.Since(t.t0)), count
	return time.Duration(s.End - s.Start)
}

// stage times body over n items, chunk by chunk, and returns ns per item.
func (t *tracer) stage(name string, n int, body func(lo, hi int)) float64 {
	if n == 0 {
		return 0
	}
	id := t.begin(name, 0)
	if !t.chunks {
		body(0, n)
	} else {
		for lo := 0; lo < n; lo += chunkItems {
			hi := min(lo+chunkItems, n)
			c := t.begin(name+".chunk", id)
			body(lo, hi)
			t.end(c, hi-lo)
		}
	}
	return float64(t.end(id, n)) / float64(n)
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir string) error {
	t.end(0, 0)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}

// recording is what one pass over a trace shows each layer.
type recording struct {
	pcap    []byte           // the trace as pcap bytes (netio's input)
	decoded []layers.Decoded // every frame layers.Parse accepted
	at      []time.Duration  // their timestamps
	isDNS   []bool           // UDP port 53: goes to dnswire, not the flow table
	// dnswire's input: UDP/53 payloads with the attributed client.
	dnsPayload [][]byte
	// resolver's op log.
	inserts []insertOp
	lookups []lookupOp
	// flowdb's and analytics' input: the finished labeled flows.
	flows []flowdb.LabeledFlow
}

type insertOp struct {
	client netip.Addr
	fqdn   string
	addrs  []netip.Addr
	at     time.Duration
}

type lookupOp struct{ client, server netip.Addr }

// record walks the trace once through the layers' public functions, wired
// as core wires them (Fig. 1), keeping what each stage was handed.
func record(w *workload, in *input, labeled []flowdb.LabeledFlow) (*recording, error) {
	rec := &recording{flows: labeled}
	var buf bytes.Buffer
	buf.Grow(int(in.Bytes) + 16*len(in.Packets) + 24)
	pw := netio.NewWriter(&buf)
	for _, p := range in.Packets {
		if err := pw.WritePacket(p); err != nil {
			return nil, err
		}
	}
	if err := pw.Flush(); err != nil {
		return nil, err
	}
	rec.pcap = buf.Bytes()

	var (
		parser layers.Parser
		msg    dnswire.Message
	)
	msg.SetInterner(dnswire.NewInterner(0))
	table := flows.NewTable(w.flowsConfig())
	rec.decoded = make([]layers.Decoded, 0, len(in.Packets))
	rec.at = make([]time.Duration, 0, len(in.Packets))
	rec.isDNS = make([]bool, 0, len(in.Packets))
	onNew := func(k flows.Key, _ time.Duration, _ bool, _ flows.Handle) {
		rec.lookups = append(rec.lookups, lookupOp{k.ClientIP, k.ServerIP})
	}
	for _, p := range in.Packets {
		d, err := parser.Parse(p.Data)
		if err != nil {
			continue
		}
		dns := d.HasUDP && (d.SrcPort == 53 || d.DstPort == 53)
		rec.decoded = append(rec.decoded, *d)
		rec.at = append(rec.at, p.Timestamp)
		rec.isDNS = append(rec.isDNS, dns)
		if !dns {
			table.Add(d, p.Timestamp, onNew)
			continue
		}
		rec.dnsPayload = append(rec.dnsPayload, d.Payload)
		if msg.Unpack(d.Payload) != nil || !msg.Header.Response {
			continue
		}
		if fqdn, addrs := msg.QueriedName(), msg.AnswerAddrs(); fqdn != "" && len(addrs) > 0 {
			rec.inserts = append(rec.inserts, insertOp{d.DstIP, fqdn, addrs, p.Timestamp})
		}
	}
	return rec, nil
}

func (w *workload) flowsConfig() flows.Config {
	if w.ClientNets {
		return flows.Config{ClientNets: clientNets}
	}
	return flows.Config{}
}

// passes runs one stage repeatedly — at least once, until its share of
// the budget is spent, at most five times — and returns every pass's value.
// Each pass starts from a collected heap, so a stage pays for the garbage
// it makes and not for its predecessor's.
func passes(budget time.Duration, once func() float64) []float64 {
	var out []float64
	deadline := time.Now().Add(budget)
	for len(out) == 0 || (len(out) < 5 && time.Now().Before(deadline)) {
		runtime.GC()
		out = append(out, once())
	}
	return out
}

// layerPass times every packet-path and flow-path layer over rec and
// returns the per-layer metrics of one workload.
func layerPass(ctx context.Context, tr *tracer, w *workload, in *input, b *batchRunner, share time.Duration) (map[string]dist, *outcome, error) {
	var o outcome
	m := map[string]dist{}
	set := func(name string, v ...float64) { m[name] = summarize(v) }
	sharded := w.Shards > 1

	// One reference replay, tracing off: the counters every layer replay
	// must reproduce, the flows flowdb is replayed with, and (sharded) the
	// ring and arena counters.
	last, res0, err := b.run(ctx)
	if err != nil {
		return nil, nil, err
	}
	labeled := res0.DB.All()
	if sharded {
		// The price of dispatch: this trace on one shard, same replays.
		one := *w
		one.Shards, one.ClientNets = 1, false
		cpu1, err := cpuPerPkt(ctx, &batchRunner{w: &one, in: in}, 3)
		if err != nil {
			return nil, nil, err
		}
		cpu2, err := cpuPerPkt(ctx, b, 3)
		if err != nil {
			return nil, nil, err
		}
		set("core.dispatch_cpu_ns_per_pkt", summarize(cpu2).Median-summarize(cpu1).Median)
		setDispatchCounters(set, last.readers, last.blocks)
	}

	rec, err := record(w, in, labeled)
	if err != nil {
		return nil, nil, err
	}
	npk := len(in.Packets)

	// netio: frame the pcap bytes into blocks.
	block := make([]netio.Packet, 256)
	readAll := func(name string, read func(*netio.Reader) (int, error)) float64 {
		rd, err := netio.NewReader(bytes.NewReader(rec.pcap))
		if err != nil {
			o.fail("%s: %v", name, err)
			return 0
		}
		id, total := tr.begin(name, 0), 0
		for done := false; !done; {
			c, inChunk := tr.begin(name+".chunk", id), 0
			for inChunk < chunkItems && !done {
				n, err := read(rd)
				inChunk += n
				if err != nil {
					done = true
					if err != io.EOF {
						o.fail("%s: %v", name, err)
					}
				}
			}
			tr.end(c, inChunk)
			total += inChunk
		}
		o.check(total == npk, "%s framed %d of %d packets", name, total, npk)
		return float64(tr.end(id, total)) / float64(npk)
	}
	set("netio.readblock_ns_per_pkt", passes(share, func() float64 {
		return readAll("netio.readblock", func(rd *netio.Reader) (int, error) { return rd.ReadBlock(block) })
	})...)
	if sharded {
		set("netio.readblockref_ns_per_pkt", passes(share, func() float64 {
			return readAll("netio.readblockref", func(rd *netio.Reader) (int, error) {
				n, blk, err := rd.ReadBlockRef(block)
				if blk != nil {
					blk.Release(1)
				}
				return n, err
			})
		})...)
	}
	peeked := 0
	set("netio.peek_ns_per_pkt", passes(share, func() float64 {
		return tr.stage("netio.peek", npk, func(lo, hi int) {
			for _, p := range in.Packets[lo:hi] {
				if _, ok := netio.PeekFrame(p.Data); ok {
					peeked++
				}
			}
		})
	})...)

	// layers: parse every frame.
	var malformed uint64
	set("layers.parse_ns_per_pkt", passes(share, func() float64 {
		var parser layers.Parser
		ns := tr.stage("layers.parse", npk, func(lo, hi int) {
			for _, p := range in.Packets[lo:hi] {
				_, _ = parser.Parse(p.Data) // rejects are counted in parser.Stats
			}
		})
		malformed = parser.Stats.Malformed
		return ns
	})...)
	set("layers.malformed", float64(malformed))
	o.check(peeked > 0 && malformed == 0, "netio.peek accepted %d frames, layers.parse rejected %d", peeked, malformed)

	// dnswire: decode every UDP/53 payload as core does.
	var dnsBad int
	set("dnswire.unpack_ns_per_msg", passes(share, func() float64 {
		var msg dnswire.Message
		msg.SetInterner(dnswire.NewInterner(0))
		var addrs []netip.Addr
		dnsBad = 0
		return tr.stage("dnswire.unpack", len(rec.dnsPayload), func(lo, hi int) {
			for _, pay := range rec.dnsPayload[lo:hi] {
				if msg.Unpack(pay) != nil {
					dnsBad++
					continue
				}
				_ = msg.QueriedName()
				addrs = msg.AppendAnswerAddrs(addrs[:0])
			}
		})
	})...)
	set("dnswire.msgs", float64(len(rec.dnsPayload)))
	set("dnswire.malformed", float64(dnsBad))

	// resolver: the op log's inserts, then its lookups against the result.
	var res *resolver.Resolver
	set("resolver.insert_ns_per_op", passes(share, func() float64 {
		res = resolver.New(resolver.Config{ClistSize: w.Clist})
		return tr.stage("resolver.insert", len(rec.inserts), func(lo, hi int) {
			for i := range rec.inserts[lo:hi] {
				op := &rec.inserts[lo+i]
				res.Insert(op.client, op.fqdn, op.addrs, op.at)
			}
		})
	})...)
	set("resolver.evictions", float64(res.Stats().Evictions))
	hits := 0
	set("resolver.lookup_ns_per_op", passes(share, func() float64 {
		hits = 0
		return tr.stage("resolver.lookup", len(rec.lookups), func(lo, hi int) {
			for _, op := range rec.lookups[lo:hi] {
				if _, ok := res.LookupEntry(op.client, op.server); ok {
					hits++
				}
			}
		})
	})...)
	if n := len(rec.lookups); n > 0 {
		set("resolver.hit_ratio", float64(hits)/float64(n))
	}
	set("resolver.entries_alive", float64(res.Stats().EntriesAlive))
	var snapshot bytes.Buffer
	set("resolver.snapshot_ms", passes(share, func() float64 {
		snapshot.Reset()
		id := tr.begin("resolver.snapshot", 0)
		entries := res.Snapshot()
		if err := resolver.WriteSnapshot(&snapshot, entries); err != nil {
			o.fail("resolver.snapshot: %v", err)
		}
		return float64(tr.end(id, len(entries))) / 1e6
	})...)
	set("resolver.restore_ms", passes(share, func() float64 {
		id := tr.begin("resolver.restore", 0)
		entries, err := resolver.ReadSnapshot(bytes.NewReader(snapshot.Bytes()))
		if err != nil {
			o.fail("resolver.restore: %v", err)
		}
		fresh := resolver.New(resolver.Config{ClistSize: w.Clist})
		fresh.Restore(entries)
		o.check(len(entries) > 0 && fresh.Stats().EntriesAlive == len(entries),
			"resolver.restore: %d entries alive from a snapshot of %d", fresh.Stats().EntriesAlive, len(entries))
		return float64(tr.end(id, len(entries))) / 1e6
	})...)

	// flows: the flow-path packets through a table, then the final flush.
	var flowPkts []int // indices into rec.decoded of non-DNS packets
	for i, dns := range rec.isDNS {
		if !dns {
			flowPkts = append(flowPkts, i)
		}
	}
	var flushNs []float64
	peak, emitted := 0, 0
	set("flows.add_ns_per_pkt", passes(share, func() float64 {
		cfg := w.flowsConfig()
		emitted = 0
		cfg.OnRecord = func(flows.Record, flows.Handle) { emitted++ }
		table := flows.NewTable(cfg)
		peak = 0
		ns := tr.stage("flows.add", len(flowPkts), func(lo, hi int) {
			for _, i := range flowPkts[lo:hi] {
				table.Add(&rec.decoded[i], rec.at[i], nil)
			}
			peak = max(peak, table.Active())
		})
		live := table.Active()
		id := tr.begin("flows.flush", 0)
		table.FlushAll()
		if d := tr.end(id, live); live > 0 {
			flushNs = append(flushNs, float64(d)/float64(live))
		}
		return ns
	})...)
	set("flows.active_peak", float64(peak))
	set("flows.flush_ns_per_flow", flushNs...)
	o.check(emitted == len(rec.lookups), "flows.add emitted %d flows, the recording pass saw %d", emitted, len(rec.lookups))
	if sharded {
		set("flows.route_ns_per_pkt", passes(share, func() float64 {
			tk := flows.NewTracker(clientNets, 0, 1)
			assign := func(netip.Addr) uint32 { return 0 }
			expire := func(flows.Key, uint64, uint32) {}
			var mark time.Duration
			return tr.stage("flows.route", len(flowPkts), func(lo, hi int) {
				for _, i := range flowPkts[lo:hi] {
					at := rec.at[i]
					tk.Route(&rec.decoded[i], at, assign)
					// The dispatcher's amortized sweep, at its cadence.
					if at-mark >= tk.IdleTimeout() {
						mark = at
						tk.ExpireIdle(at, expire)
					}
				}
			})
		})...)
	}

	// core: the Fig. 1 pipeline with no Engine around it, with chunk
	// spans and (for the tracing-overhead ratio) without.
	handle := func(chunks bool) float64 {
		h := core.New(core.Config{
			Resolver: resolver.Config{ClistSize: w.Clist},
			Flows:    w.flowsConfig(),
			Truth:    in.Truth,
			OnTag:    func(core.TagEvent) {},
		})
		runtime.GC() // as every engine replay starts
		tr.chunks = chunks
		ns := tr.stage("core.handle", npk, func(lo, hi int) {
			for _, p := range in.Packets[lo:hi] {
				h.HandlePacket(p)
			}
		})
		tr.chunks = true
		id := tr.begin("core.close", 0)
		h.Close()
		ns += float64(tr.end(id, h.DB().Len())) / float64(npk)
		o.check(statsOf(h.Stats()) == last.stats, "core.handle stats %+v differ from the engine's %+v", statsOf(h.Stats()), last.stats)
		return ns
	}
	// The box's speed drifts by more than the differences wanted here, so
	// the engine replay and the two bare-pipeline passes alternate and the
	// differences are taken within a round.
	var e2eNs, e2eCPU, cpuOverWall, drainMs, tagP99, on, off, overhead []float64
	for round := 0; round < 3; round++ {
		r, _, err := b.run(ctx)
		if err != nil {
			return nil, nil, err
		}
		o.check(r.stats == last.stats, "reference replay %d: stats %+v, first %+v", round, r.stats, last.stats)
		e2eNs = append(e2eNs, float64(r.wall)/float64(npk))
		e2eCPU = append(e2eCPU, float64(r.cpu)/float64(npk))
		cpuOverWall = append(cpuOverWall, float64(r.cpu)/float64(r.wall))
		drainMs = append(drainMs, float64(r.drain)/1e6)
		tagP99 = append(tagP99, r.tagP99)
		first := round%2 == 0
		a, c := handle(first), handle(!first)
		if !first {
			a, c = c, a
		}
		on, off = append(on, a), append(off, c)
		overhead = append(overhead, e2eNs[round]-a)
	}
	set("core.cpu_over_wall", cpuOverWall...)
	set("core.drain_ms", drainMs...)
	set("core.tag_latency_p99_us", tagP99...)
	set("core.handle_ns_per_pkt", on...)
	// Best pass of each: the chunk spans' cost is a floor effect that the
	// box's drift would otherwise bury.
	sort.Float64s(on)
	sort.Float64s(off)
	set("trace.overhead_ratio", on[0]/off[0])
	// The reconciliation's base is what a packet costs end to end: wall
	// time on one shard, CPU time where the work is spread over goroutines.
	e2e := summarize(e2eNs).Median
	if sharded {
		e2e = summarize(e2eCPU).Median
	} else {
		set("core.engine_overhead_ns_per_pkt", overhead...)
	}

	// flowdb: store the finished flows.
	nfl := len(rec.flows)
	set("flowdb.add_ns_per_flow", passes(share, func() float64 {
		db := flowdb.New()
		return tr.stage("flowdb.add", nfl, func(lo, hi int) {
			for i := range rec.flows[lo:hi] {
				db.Add(rec.flows[lo+i])
			}
		})
	})...)
	set("flowdb.flows", float64(nfl))

	// Reconciliation: each layer's cost weighted by the share of packets
	// that reach it, against the end-to-end cost per packet. Isolated
	// replays run warmer than the pipeline, so this is reported, not gated.
	sum := m["layers.parse_ns_per_pkt"].Median +
		(m["dnswire.unpack_ns_per_msg"].Median*float64(len(rec.dnsPayload))+
			m["resolver.insert_ns_per_op"].Median*float64(len(rec.inserts))+
			m["resolver.lookup_ns_per_op"].Median*float64(len(rec.lookups))+
			m["flows.add_ns_per_pkt"].Median*float64(len(flowPkts))+
			(m["flows.flush_ns_per_flow"].Median+m["flowdb.add_ns_per_flow"].Median)*float64(nfl))/float64(npk)
	if sharded {
		sum += m["flows.route_ns_per_pkt"].Median * float64(len(flowPkts)) / float64(npk)
	}
	set("trace.layer_sum_over_e2e", sum/e2e)
	set("trace.unattributed_ns_per_pkt", e2e-sum)
	return m, &o, nil
}

// cpuPerPkt replays b's trace n times and returns each replay's CPU
// nanoseconds per packet.
func cpuPerPkt(ctx context.Context, b *batchRunner, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		r, _, err := b.run(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, float64(r.cpu)/float64(len(b.in.Packets)))
	}
	return out, nil
}

// setDispatchCounters reports what a sharded run's dispatch stage counted:
// reader parks and the payload arena's traffic.
func setDispatchCounters(set func(string, ...float64), readers []dnhunter.ReaderStat, blocks netio.BlockPoolStats) {
	var ringParks, meshParks uint64
	for _, rs := range readers {
		ringParks += rs.RingFullParks
		meshParks += rs.MeshFullParks
	}
	set("core.ring_full_parks", float64(ringParks))
	set("core.mesh_full_parks", float64(meshParks))
	set("netio.blockpool_allocs", float64(blocks.Allocs))
	set("netio.blocks_retired", float64(blocks.Retired))
	if blocks.Retired > 0 {
		set("netio.block_retire_avg_ns", float64(blocks.RetireNs)/float64(blocks.Retired))
	}
}

// servePass is the traced pass of serve-ftth: the flow-path layers that
// only serve mode runs, timed alone over the recorded flows, then the full
// open-loop ladder with the ring-depth poll and HTTP scrapes running.
func servePass(ctx context.Context, tr *tracer, w *workload, in *input, b *batchRunner, share, rung time.Duration, dir string) (map[string]dist, *outcome, error) {
	// The packet-path layers see the same trace as batch-ftth-s2.
	m, o, err := layerPass(ctx, tr, w, in, b, share)
	if err != nil {
		return nil, o, err
	}
	set := func(name string, v ...float64) { m[name] = summarize(v) }
	_, res, err := b.run(ctx)
	if err != nil {
		return nil, o, err
	}
	labeled := res.DB.All()
	nfl := len(labeled)

	pipe := dnhunter.NewAnalyticsPipeline(dnhunter.StreamingQueries(in.Orgs)...)
	var flushUs []float64
	set("flowdb.windowed_add_ns_per_flow", passes(share, func() float64 {
		flushUs = flushUs[:0]
		// Windowed.Add rotates inside the call that crosses a boundary, so
		// a rotation (Observe + Flush hooks included) is the Add that took
		// longer than everything else: time each one.
		var inFlush time.Time
		win := flowdb.NewWindowed(flowdb.WindowConfig{
			Width:   5 * time.Minute,
			Observe: func(wd flowdb.Window) { inFlush = time.Now(); pipe.ObserveWindow(wd) },
			Flush: func(wd flowdb.Window) error {
				err := wd.DB.WriteCSV(io.Discard)
				flushUs = append(flushUs, us(time.Since(inFlush)))
				return err
			},
		})
		// Windows advance on flow end time: feed flows in that order, as
		// the engine emits them.
		ns := tr.stage("flowdb.windowed_add", nfl, func(lo, hi int) {
			for i := range labeled[lo:hi] {
				if err := win.Add(labeled[lo+i]); err != nil {
					o.fail("flowdb.windowed_add: %v", err)
				}
			}
		})
		if err := win.Close(); err != nil {
			o.fail("flowdb.windowed close: %v", err)
		}
		set("flowdb.windows_flushed", float64(win.WindowsFlushed()))
		return ns
	})...)
	sort.Float64s(flushUs)
	set("flowdb.window_flush_us_p50", percentile(flushUs, 50))
	set("flowdb.window_flush_us_max", percentile(flushUs, 100))

	set("flowdb.writecsv_ns_per_flow", passes(share, func() float64 {
		id := tr.begin("flowdb.writecsv", 0)
		if err := res.DB.WriteCSV(io.Discard); err != nil {
			o.fail("flowdb.writecsv: %v", err)
		}
		return float64(tr.end(id, nfl)) / float64(nfl)
	})...)
	set("analytics.observe_ns_per_flow", passes(share, func() float64 {
		p := dnhunter.NewAnalyticsPipeline(dnhunter.StreamingQueries(in.Orgs)...)
		id := tr.begin("analytics.observe", 0)
		p.ObserveDB(res.DB)
		pipe = p
		return float64(tr.end(id, nfl)) / float64(nfl)
	})...)
	set("analytics.snapshot_ms", passes(share, func() float64 {
		id := tr.begin("analytics.snapshot", 0)
		n := len(pipe.Snapshot())
		return float64(tr.end(id, n)) / 1e6
	})...)

	// The ladder: every rung, fresh server each, observed.
	var sustainable float64
	var drainMs []float64
	for i, rg := range rungs {
		spec := serveSpec{Rate: rg.PPS, Duration: rung, Observe: true, Dir: dir}
		r, err := runServe(ctx, w, in, spec)
		if err != nil {
			return nil, o, err
		}
		r.check(o, w, spec)
		drainMs = append(drainMs, float64(r.drain)/1e6)
		p99 := tailPercentile(r.tagLat)
		set("core.tag_latency_p50_us."+rg.Tag, percentile(r.tagLat, 50))
		set("core.tag_latency_p99_us."+rg.Tag, p99)
		set("core.source_lag_p99_us."+rg.Tag, r.lagP99)
		set("core.delivered_ratio."+rg.Tag, r.delivered)
		if r.sustained() {
			sustainable = rg.PPS
		}
		if i == latencyRung {
			set("core.tag_latency_p99_us", p99)
			set("serve.metrics_scrape_us", r.scrapeUs...)
			set("serve.stats_json_us", r.jsonUs...)
		}
		if i == topRung {
			setDispatchCounters(set, r.readers, r.blocks)
			set("core.shed_flows", float64(r.report.Dropped.Flows))
			set("core.shed_dns", float64(r.report.Dropped.DNS))
			set("core.ring_depth_max", float64(r.ringDepthMax))
			set("core.cpu_over_wall", float64(r.cpu)/float64(r.wall+r.drain))
		}
	}
	set("core.sustainable_pps", sustainable)
	set("core.drain_ms", drainMs...)
	return m, o, nil
}
