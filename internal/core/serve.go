package core

// Streaming service mode: Serve is Run for unbounded input. A batch Run
// ingests a finite trace, accumulates every labeled flow in Result.DB,
// and exits; Serve runs until its context is cancelled, bounds memory by
// flushing flows in rolling windows instead of accumulating them (see
// windows), sheds load instead of stalling the reader when a shard backs
// up, and checkpoints resolver state so a restart does not lose the
// DNS→flow context the paper's Clist exists to provide.
//
// Graceful drain reuses the batch pipeline's own end-of-capture path
// rather than duplicating it: cancelling the Serve context does not
// cancel the inner engine — it makes the packet source report EOF, so the
// engine takes its normal EOF exit (flush all flows, flush the final
// window, merge stats, close the sink). Only if the drain exceeds
// DrainTimeout is the inner context hard-cancelled, which aborts without
// flushing, exactly like a cancelled batch Run.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/flowdb"
	"repro/internal/netio"
	"repro/internal/resolver"
)

// shedShard is one shard's drop counters.
type shedShard struct {
	flows atomic.Uint64
	dns   atomic.Uint64
	bytes atomic.Uint64
}

// ShedStats accounts per-shard overload drops. The dispatcher is the only
// writer; any goroutine may read (the metrics endpoint does). The zero
// value is valid and reports zeroes until an engine run initializes it.
type ShedStats struct {
	shards atomic.Pointer[[]shedShard]
}

// init sizes the per-shard counters; called by runSharded before the
// dispatcher starts.
func (s *ShedStats) init(shards int) {
	cells := make([]shedShard, shards)
	s.shards.Store(&cells)
}

// drop records one shed entry. Called only from the dispatcher, after a
// failed put, so it is off the no-drop fast path.
func (s *ShedStats) drop(sh int, kind uint8, payloadLen int) {
	p := s.shards.Load()
	if p == nil {
		return
	}
	c := &(*p)[sh]
	if kind == entryDNS {
		c.dns.Add(1)
	} else {
		c.flows.Add(1)
	}
	c.bytes.Add(uint64(payloadLen))
}

// ShedShard is a point-in-time copy of one shard's drop counters.
type ShedShard struct {
	// Flows counts dropped flow-path entries (one per packet): each is a
	// packet whose bytes are missing from its flow's accounting; if every
	// packet of a flow is dropped, the flow is missing entirely.
	Flows uint64
	// DNS counts dropped UDP/53 entries: DNS responses the resolver never
	// saw, so flows they would have labeled stay unlabeled — shedding
	// degrades tagging coverage, and this counter bounds by how much.
	DNS uint64
	// Bytes sums the payload bytes of dropped entries.
	Bytes uint64
}

// PerShard returns a copy of every shard's drop counters (index == shard).
func (s *ShedStats) PerShard() []ShedShard {
	p := s.shards.Load()
	if p == nil {
		return nil
	}
	out := make([]ShedShard, len(*p))
	for i := range *p {
		c := &(*p)[i]
		out[i] = ShedShard{Flows: c.flows.Load(), DNS: c.dns.Load(), Bytes: c.bytes.Load()}
	}
	return out
}

// Totals sums the per-shard drop counters.
func (s *ShedStats) Totals() ShedShard {
	var t ShedShard
	for _, sh := range s.PerShard() {
		t.Flows += sh.Flows
		t.DNS += sh.DNS
		t.Bytes += sh.Bytes
	}
	return t
}

// ReaderStat is a point-in-time copy of the sharded engine's dispatch
// counters (see Result.Readers and ServeMetrics.ReaderStats). The engine
// has one dispatcher, so there is exactly one; the slice shape and the two
// always-zero fields remain for callers written against the retired
// reader fan-out.
type ReaderStat struct {
	// Pkts counts the frames the dispatcher read.
	Pkts uint64 `json:"pkts"`
	// RingFullParks is always 0: there is no ingress ring.
	RingFullParks uint64 `json:"ring_full_parks"`
	// MeshFullParks counts the dispatcher parking on full dispatcher→shard
	// rings — sustained growth means a shard is the bottleneck, not the
	// parse. Serve mode exports it as the reader_mesh_full_parks_total
	// counter.
	MeshFullParks uint64 `json:"mesh_full_parks"`
	// ShedFrames is always 0: frames are never shed before the parse (shed
	// entries are counted in ShedStats).
	ShedFrames uint64 `json:"shed_frames"`
}

// dispatchStat builds the dispatcher's ReaderStat from its frame count and
// the park counters of its shard rings.
func dispatchStat(pkts uint64, rings []*ring) ReaderStat {
	st := ReaderStat{Pkts: pkts}
	for _, r := range rings {
		st.MeshFullParks += r.parks.Load()
	}
	return st
}

// ServeMetrics is the live observable state of a serving engine. All
// methods are safe for concurrent use while the engine runs. Series
// declares every exported value once; the internal/serve HTTP endpoint
// renders that list on every scrape.
type ServeMetrics struct {
	packets      atomic.Uint64
	bytes        atomic.Uint64
	clockNs      atomic.Int64
	tags         atomic.Uint64
	dnsResponses atomic.Uint64
	flows        atomic.Uint64
	labeled      atomic.Uint64
	restored     atomic.Uint64
	draining     atomic.Bool

	// Fault surface (see supervisor.go and loadCheckpoint): classified
	// source-error counters, restart accounting, checkpoint fresh starts,
	// and the degraded flag /healthz reports.
	faultTransient atomic.Uint64
	faultFatal     atomic.Uint64
	restarts       atomic.Uint64
	restartBudget  atomic.Int64 // total budget; 0 = supervision off
	freshStarts    atomic.Uint64
	degraded       atomic.Bool

	// Shed holds the per-shard overload drop counters.
	Shed ShedStats

	win   atomic.Pointer[windows]
	rings atomic.Pointer[[]*ring]
}

// Packets returns frames read from the source.
func (m *ServeMetrics) Packets() uint64 { return m.packets.Load() }

// Draining reports whether the serve context was cancelled and the engine
// is flushing its final state.
func (m *ServeMetrics) Draining() bool { return m.draining.Load() }

// Degraded reports whether the engine is serving in a degraded state: the
// source needed at least one supervised restart, or the checkpoint was
// rejected and serving began from a counted fresh start. Degraded is
// sticky for the run — it marks "results may have gaps", which a later
// recovery does not un-happen.
func (m *ServeMetrics) Degraded() bool { return m.degraded.Load() }

// RingDepths returns each shard ring's backlog — published-but-unreleased
// entries in units of the 512-entry per-pass batch, rounded up — indexed by
// shard; nil for a single-shard engine (no rings). A depth pinned at the
// ring capacity (8) is a saturated shard.
func (m *ServeMetrics) RingDepths() []int {
	p := m.rings.Load()
	if p == nil {
		return nil
	}
	out := make([]int, len(*p))
	for i, r := range *p {
		out[i] = r.depth()
	}
	return out
}

// ReaderStats returns the dispatcher's counters as a one-entry slice (see
// ReaderStat); nil for a single-shard engine (no dispatcher). Pkts is the
// frames read from the source, as Packets reports.
func (m *ServeMetrics) ReaderStats() []ReaderStat {
	p := m.rings.Load()
	if p == nil {
		return nil
	}
	return []ReaderStat{dispatchStat(m.packets.Load(), *p)}
}

// Series is one metric family of a serving engine: its name (without the
// dnhunter_ exposition prefix), Prometheus type ("counter" or "gauge"),
// help text, label names, and Read, which emits the family's current
// samples, one value per label set with the label values in Labels order.
// An unlabeled family emits exactly one sample; a labeled one may emit
// none. internal/serve renders /metrics and /stats.json from one list of
// these, and its tests render the OPERATIONS.md metrics table from the
// same list, so each family is declared once.
type Series struct {
	Name, Type, Help string
	Labels           []string
	Read             func(emit func(v float64, labels ...string))
}

// number is what a scalar family's reader may return.
type number interface {
	~int64 | ~uint64 | ~float64
}

// counter and gauge declare an unlabeled family read from v.
func counter[T number](name, help string, v func() T) Series { return scalar("counter", name, help, v) }
func gauge[T number](name, help string, v func() T) Series   { return scalar("gauge", name, help, v) }

func scalar[T number](typ, name, help string, v func() T) Series {
	return Series{Name: name, Type: typ, Help: help, Read: func(emit func(float64, ...string)) { emit(float64(v())) }}
}

// flag reads a boolean as a 0/1 gauge value.
func flag(b *atomic.Bool) func() uint64 {
	return func() uint64 {
		if b.Load() {
			return 1
		}
		return 0
	}
}

// Series returns the engine's metric families in exposition order. Each
// entry reads its counters when rendered, so one list serves every scrape.
func (m *ServeMetrics) Series() []Series {
	perShard := func(name, help string, v func(ShedShard) uint64) Series {
		return Series{Name: name, Type: "counter", Help: help, Labels: []string{"shard"}, Read: func(emit func(float64, ...string)) {
			for i, sh := range m.Shed.PerShard() {
				emit(float64(v(sh)), strconv.Itoa(i))
			}
		}}
	}
	arena := netio.DefaultBlockPool().Stats
	return []Series{
		counter("packets_total", "frames read from the packet source", m.packets.Load),
		counter("bytes_total", "frame bytes read", m.bytes.Load),
		gauge("trace_clock_seconds", "newest packet timestamp read, in trace time", func() float64 {
			return time.Duration(m.clockNs.Load()).Seconds()
		}),
		counter("flows_total", "finished labeled-flow records emitted", m.flows.Load),
		counter("labeled_flows_total", "emitted records that carried a DNS label", m.labeled.Load),
		counter("tags_total", "flows tagged at their first packet", m.tags.Load),
		counter("dns_responses_total", "decoded address-bearing DNS responses", m.dnsResponses.Load),
		counter("dropped_flows_total", "flow-path entries shed under overload, summed over shards; each is a packet missing from its flow's byte accounting", func() uint64 { return m.Shed.Totals().Flows }),
		counter("dropped_dns_total", "DNS entries shed under overload, summed over shards; each is a response the resolver never saw, so flows it would have labeled stay unlabeled", func() uint64 { return m.Shed.Totals().DNS }),
		counter("dropped_bytes_total", "payload bytes shed under overload, summed over shards", func() uint64 { return m.Shed.Totals().Bytes }),
		perShard("shard_dropped_flows_total", "flow-path entries shed under overload, per shard (only with -shed)", func(s ShedShard) uint64 { return s.Flows }),
		perShard("shard_dropped_dns_total", "DNS entries shed under overload, per shard (only with -shed)", func(s ShedShard) uint64 { return s.DNS }),
		perShard("shard_dropped_bytes_total", "payload bytes shed under overload, per shard (only with -shed)", func(s ShedShard) uint64 { return s.Bytes }),
		counter("windows_flushed_total", "completed flow windows handed to the window hooks, every shard's part merged", func() uint64 {
			if w := m.win.Load(); w != nil {
				return w.store.WindowsFlushed()
			}
			return 0
		}),
		gauge("window_flush_lag_seconds", "trace time from the start of the oldest window not yet flushed to the newest packet read", func() float64 {
			if w := m.win.Load(); w != nil {
				return w.lag(time.Duration(m.clockNs.Load())).Seconds()
			}
			return 0
		}),
		{Name: "ring_depth", Type: "gauge", Labels: []string{"shard"},
			Help: "each shard's backlog: published-but-unreleased entries in its ring divided by the batch size (512), rounded up, so 0 to 8; pinned at 8 means the shard is saturated (only with -shards > 1)",
			Read: func(emit func(float64, ...string)) {
				for i, d := range m.RingDepths() {
					emit(float64(d), strconv.Itoa(i))
				}
			}},
		{Name: "reader_mesh_full_parks_total", Type: "counter", Labels: []string{"reader"},
			Help: "times the dispatcher parked on a full shard ring; sustained growth means a shard, not the parse, is the bottleneck (one series; only with -shards > 1)",
			Read: func(emit func(float64, ...string)) {
				for i, r := range m.ReaderStats() {
					emit(float64(r.MeshFullParks), strconv.Itoa(i))
				}
			}},
		counter("arena_blocks_retired_total", "payload arena blocks whose last handle was released (process-wide)", func() uint64 { return arena().Retired }),
		gauge("arena_block_retire_ns_avg", "mean time payload handles keep an arena block pinned, in nanoseconds (process-wide)", func() float64 {
			if st := arena(); st.Retired > 0 {
				return float64(st.RetireNs) / float64(st.Retired)
			}
			return 0
		}),
		gauge("restored_entries", "resolver entries restored from the checkpoint at startup", m.restored.Load),
		{Name: "fault_source_errors_total", Type: "counter", Labels: []string{"class"},
			Help: "source read errors by supervisor classification: transient (recovered by restart) or fatal (ended the run)",
			Read: func(emit func(float64, ...string)) {
				emit(float64(m.faultTransient.Load()), "transient")
				emit(float64(m.faultFatal.Load()), "fatal")
			}},
		counter("fault_source_restarts_total", "supervised source restarts completed", m.restarts.Load),
		counter("fault_checkpoint_fresh_starts_total", "checkpoint files rejected at startup (corrupt, truncated or future-version), each answered by serving from empty resolver state", m.freshStarts.Load),
		gauge("fault_error_budget_total", "restart budget configured by the policy (0 = supervision off)", m.restartBudget.Load),
		gauge("fault_error_budget_remaining", "restarts left before transient source errors become fatal", func() int64 {
			return max(m.restartBudget.Load()-int64(m.restarts.Load()), 0)
		}),
		gauge("degraded", "1 after any source restart or checkpoint fresh start; sticky for the run, since the output already has gaps", flag(&m.degraded)),
		gauge("draining", "1 while draining after a stop signal", flag(&m.draining)),
	}
}

// ServeConfig tunes Server.Serve.
type ServeConfig struct {
	// Window is the flow window width in capture time: window k opens at
	// the first packet at or past its start, and holds every flow emitted
	// while handling it and the packets after it, up to the packet that
	// opens window k+1. Completed windows are handed to ObserveWindow and
	// FlushWindow and their memory recycled. Zero means 5 minutes.
	Window time.Duration
	// ObserveWindow sees each completed window before FlushWindow and
	// before its storage is recycled (flowdb.WindowConfig.Observe) — hang
	// streaming analytics here, e.g. analytics.Pipeline.ObserveWindow. It
	// runs even when FlushWindow is nil.
	ObserveWindow func(flowdb.Window)
	// FlushWindow receives each completed window in order (see
	// flowdb.WindowConfig.Flush for the DB lifetime contract): every
	// shard's flows of the window, shard by shard, so at a fixed shard
	// count a window's rows come in the same order run to run. nil
	// discards completed windows: flows are then observable only through
	// the configured Sink. Both window hooks run on one goroutine of the
	// Server's own, in window order, concurrently with the Sink's calls;
	// a FlushWindow error is sticky and fails Serve.
	FlushWindow func(flowdb.Window) error
	// Shed switches the dispatcher→shard rings from blocking back-pressure
	// to overload shedding with per-shard drop accounting. Only meaningful
	// with Shards > 1.
	Shed bool
	// CheckpointPath, when non-empty, names the resolver Clist checkpoint
	// file: loaded (if present) before serving and rewritten after a
	// graceful drain. Written atomically and durably (temp file, fsync,
	// rename, directory fsync).
	CheckpointPath string
	// DrainTimeout bounds the graceful drain after context cancellation;
	// past it the engine is hard-cancelled and pending state is dropped
	// (no checkpoint is written). Zero means 30 seconds.
	DrainTimeout time.Duration
	// Restart, when non-nil, supervises the packet source: read errors
	// are classified transient or fatal, and transient ones restart the
	// source under exponential backoff with deterministic jitter, bounded
	// by an error budget. nil propagates the first source error, as a
	// batch Run would.
	Restart *RestartPolicy
}

// ServeReport is the outcome of one graceful Serve.
type ServeReport struct {
	// Stats are the merged pipeline statistics, as in a batch Result.
	Stats Stats
	// Packets and Bytes count frames read from the source.
	Packets, Bytes uint64
	// Windows counts flowdb windows flushed, including the final partial
	// window.
	Windows uint64
	// Dropped sums the overload-shed drop counters across shards.
	Dropped ShedShard
	// RestoredEntries is the resolver state loaded from the checkpoint at
	// startup; CheckpointedEntries is the state written at drain.
	RestoredEntries, CheckpointedEntries int
	// SourceRestarts counts supervised source restarts during the run
	// (transient errors the RestartPolicy recovered from).
	SourceRestarts uint64
	// FreshStart, when non-empty, records why the configured checkpoint
	// was rejected at startup: the run served from empty resolver state
	// rather than failing. Empty when the checkpoint loaded (or none was
	// configured).
	FreshStart string
}

// drainGrace is how long Serve waits after the hard-cancel before
// abandoning a wedged run goroutine.
const drainGrace = 100 * time.Millisecond

// Server runs one engine configuration in streaming mode. Build it with
// NewServer, inspect it live through Metrics, and run it with Serve. A
// Server handles one Serve call at a time.
type Server struct {
	cfg        EngineConfig
	scfg       ServeConfig
	metrics    ServeMetrics
	pipes      []*DNHunter
	restored   []resolver.SnapshotEntry
	freshStart string // why the checkpoint was rejected; "" = loaded fine
}

// NewServer assembles a streaming server around an engine configuration.
// The engine's Sink (if any) still observes every event; Serve wraps it
// to count events for the metrics.
func NewServer(cfg EngineConfig, scfg ServeConfig) *Server {
	if scfg.Window <= 0 {
		scfg.Window = 5 * time.Minute
	}
	if scfg.DrainTimeout <= 0 {
		scfg.DrainTimeout = 30 * time.Second
	}
	return &Server{cfg: cfg, scfg: scfg}
}

// Metrics returns the live metrics view. Valid (reporting zeroes) before
// Serve starts and after it returns.
func (s *Server) Metrics() *ServeMetrics { return &s.metrics }

// Serve streams src through the pipeline until ctx is cancelled, then
// drains gracefully: the source is made to report EOF, in-flight flows
// are flushed through the sink and the final window, and — with a
// CheckpointPath — resolver state is written for the next run. Serve
// returns a nil error on a clean drain; it returns ctx.Err() only when
// the drain exceeded DrainTimeout and state was dropped.
func (s *Server) Serve(ctx context.Context, src netio.PacketSource) (*ServeReport, error) {
	if err := s.loadCheckpoint(); err != nil {
		return nil, err
	}
	cfg := s.cfg
	cfg.server = s
	eng := NewEngine(cfg)
	ss := newServeSource(eng.adapt(src), s.scfg.Restart, &s.metrics)

	// The inner context is NOT derived from ctx: cancellation must drain,
	// not abort. The engine runs on its own goroutine so Serve can turn
	// ctx cancellation into source EOF, then bound the drain: past
	// DrainTimeout the inner context is hard-cancelled and — if the
	// pipeline is wedged somewhere cancellation cannot reach, such as a
	// blocked sink callback — Serve abandons the run goroutine and
	// returns. After a timeout error the Server must not be reused.
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runOut struct {
		res *Result
		err error
	}
	runC := make(chan runOut, 1)
	go func() {
		res, err := eng.runAndClose(inner, ss)
		runC <- runOut{res, err}
	}()

	var r runOut
	select {
	case r = <-runC:
	case <-ctx.Done():
		s.metrics.draining.Store(true)
		ss.stop.Store(true)
		t := time.NewTimer(s.scfg.DrainTimeout)
		defer t.Stop()
		select {
		case r = <-runC:
		case <-t.C:
			cancel()
			// One short grace period for the hard-cancel to unwind the
			// packet loop; a pipeline wedged beyond its reach is abandoned.
			g := time.NewTimer(drainGrace)
			defer g.Stop()
			select {
			case r = <-runC:
			case <-g.C:
				return nil, fmt.Errorf("core: drain timed out after %v: %w", s.scfg.DrainTimeout, ctx.Err())
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}

	rep := &ServeReport{
		Stats:           r.res.Stats,
		Packets:         s.metrics.packets.Load(),
		Bytes:           s.metrics.bytes.Load(),
		Windows:         s.metrics.win.Load().store.WindowsFlushed(),
		Dropped:         s.metrics.Shed.Totals(),
		RestoredEntries: len(s.restored),
		SourceRestarts:  s.metrics.restarts.Load(),
		FreshStart:      s.freshStart,
	}
	if s.scfg.CheckpointPath != "" {
		// One snapshot per shard, merged into the file by response time:
		// each shard's FIFO order survives, with no combined copy or sort.
		snaps := make([][]resolver.SnapshotEntry, len(s.pipes))
		for i, h := range s.pipes {
			snaps[i] = h.Resolver().Snapshot()
			rep.CheckpointedEntries += len(snaps[i])
		}
		if err := writeCheckpointFile(s.scfg.CheckpointPath, snaps); err != nil {
			return rep, fmt.Errorf("core: writing checkpoint: %w", err)
		}
	}
	return rep, nil
}

// loadCheckpoint reads the configured checkpoint file. A missing file is
// a fresh start, not an error; so is an invalid one — a checkpoint that
// fails validation (corrupt, truncated, not a snapshot, or written by a
// newer version) must not brick the service that would rewrite it on the
// next clean drain. Rejections are counted (CheckpointFreshStarts), mark
// the run degraded, and surface in ServeReport.FreshStart. Only an I/O
// error on an existing file still fails startup: the file may be fine
// and silently ignoring it would discard real state.
func (s *Server) loadCheckpoint() error {
	s.restored = nil
	s.freshStart = ""
	if s.scfg.CheckpointPath == "" {
		return nil
	}
	f, err := os.Open(s.scfg.CheckpointPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: opening checkpoint: %w", err)
	}
	defer f.Close()
	entries, err := resolver.ReadSnapshot(f)
	if err != nil {
		if errors.Is(err, resolver.ErrBadSnapshot) ||
			errors.Is(err, resolver.ErrSnapshotCorrupt) ||
			errors.Is(err, resolver.ErrSnapshotVersion) {
			s.freshStart = err.Error()
			s.metrics.freshStarts.Add(1)
			s.metrics.degraded.Store(true)
			return nil
		}
		return fmt.Errorf("core: reading checkpoint %s: %w", s.scfg.CheckpointPath, err)
	}
	s.restored = entries
	s.metrics.restored.Store(uint64(len(entries)))
	return nil
}

// start is the engine's one call into the Server it serves for, made on
// the Run goroutine once the pipelines (and, sharded, their rings) exist
// and before the first packet. It replays the restored checkpoint into the
// shards' resolvers, publishes the rings to the metrics, sizes the shed
// counters and starts the window flusher; it returns the window hand-off,
// and the shed counters when the rings should shed. A nil Server (a batch
// run) returns nil for both.
//
// Restored entries route by the same client-address hash the dispatcher
// uses, so a checkpoint taken at one shard count restores correctly at any
// other.
func (s *Server) start(hs []*DNHunter, rings []*ring) (*windows, *ShedStats) {
	if s == nil {
		return nil, nil
	}
	s.pipes = hs
	if len(s.restored) > 0 {
		groups := make([][]resolver.SnapshotEntry, len(hs))
		for _, se := range s.restored {
			i := shardOfAddr(se.Client, len(hs))
			groups[i] = append(groups[i], se)
		}
		for i, g := range groups {
			hs[i].Resolver().Restore(g)
		}
	}
	var shed *ShedStats
	if rings != nil {
		s.metrics.rings.Store(&rings)
		if s.scfg.Shed {
			s.metrics.Shed.init(len(rings))
			shed = &s.metrics.Shed
		}
	}
	ws := newWindows(s.scfg.Window, len(hs),
		flowdb.NewWindowed(flowdb.WindowConfig{Observe: s.scfg.ObserveWindow, Flush: s.scfg.FlushWindow}))
	s.metrics.win.Store(ws)
	go ws.run()
	return ws, shed
}

// writeCheckpointFile writes the per-shard snapshots as one checkpoint,
// atomically and durably: temp file in the target directory, fsync,
// rename, then fsync of the directory, so a crash after a clean drain
// cannot lose the rename.
func writeCheckpointFile(path string, snaps [][]resolver.SnapshotEntry) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = resolver.WriteSnapshot(f, snaps...)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// serveSink counts the pipelines' events for the metrics and passes them
// on to the user's sink, which the engine has already serialized when more
// than one shard calls it. The engine closes the user's sink itself, so
// serveSink's own Close is NopSink's.
type serveSink struct {
	NopSink
	inner Sink
	m     *ServeMetrics
}

// OnTag implements Sink.
func (s *serveSink) OnTag(e TagEvent) {
	s.m.tags.Add(1)
	if s.inner != nil {
		s.inner.OnTag(e)
	}
}

// OnDNSResponse implements Sink.
func (s *serveSink) OnDNSResponse(e DNSEvent) {
	s.m.dnsResponses.Add(1)
	if s.inner != nil {
		s.inner.OnDNSResponse(e)
	}
}

// OnFlow implements Sink.
func (s *serveSink) OnFlow(f flowdb.LabeledFlow) {
	s.m.flows.Add(1)
	if f.Labeled {
		s.m.labeled.Add(1)
	}
	if s.inner != nil {
		s.inner.OnFlow(f)
	}
}

// windows is serve mode's window hand-off, one per Serve. Every shard
// pipeline, the single-shard one too, appends its finished flows to a
// window DB of its own (DNHunter.db), with no lock. The goroutine that
// reads packets owns the capture clock (windowClock): the packet that
// opens a window opens it on every shard — the dispatcher puts an
// entryWindow on every ring, never shed — so window k holds the same flows
// at every shard count, and a shard that gets no traffic still seals.
// Sealing hands the shard's DB to the one flusher goroutine (run) and
// takes a recycled one back. Each shard owns two DBs, so a seal waits only
// when the flusher is a whole window behind. Once the flusher holds window
// k from every shard, flowdb.Windowed.Flush merges the parts in shard
// order and runs ObserveWindow and FlushWindow; then the DBs go back to
// their shards.
type windows struct {
	width time.Duration
	store *flowdb.Windowed
	// sealed carries each shard's parts to the flusher, in window order;
	// free carries the DBs back. A shard has at most two parts in flight
	// and two DBs, so neither send ever waits for room.
	sealed []chan sealedPart
	free   []chan *flowdb.DB
	// quit is closed when the run aborts: shards stop waiting on the
	// flusher, and the flusher stops.
	quit chan struct{}
	// done is closed when the flusher returns; err, its sticky flush
	// error, is read after that.
	done chan struct{}
	err  error
	// fromNs is the start of the oldest window not flushed yet, for the
	// lag gauge; noWindow until the first window opens and after the
	// last one is flushed.
	fromNs atomic.Int64
}

// sealedPart is one shard's part of one window: the window [start,
// start+width), the start of the window the shard opened next, and
// whether this is the final window of the run.
type sealedPart struct {
	db          *flowdb.DB
	start, next time.Duration
	final       bool
}

// noWindow marks fromNs unset.
const noWindow = math.MinInt64

// newWindows builds the hand-off for shards pipelines; store completes
// the windows.
func newWindows(width time.Duration, shards int, store *flowdb.Windowed) *windows {
	ws := &windows{
		width:  width,
		store:  store,
		sealed: make([]chan sealedPart, shards),
		free:   make([]chan *flowdb.DB, shards),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := range shards {
		ws.sealed[i] = make(chan sealedPart, 2)
		ws.free[i] = make(chan *flowdb.DB, 2)
		ws.free[i] <- flowdb.New() // the shard's second DB
	}
	ws.fromNs.Store(noWindow)
	return ws
}

// clock returns the capture clock for the goroutine that reads packets;
// a nil hand-off (a batch run) gives a clock that never opens a window.
func (ws *windows) clock() windowClock { return windowClock{ws: ws, end: math.MinInt64} }

// shard returns shard i's side of the hand-off; nil in a batch run.
func (ws *windows) shard(i int) *shardWindow {
	if ws == nil {
		return nil
	}
	return &shardWindow{ws: ws, i: i}
}

// lag is the trace time from the start of the oldest window not flushed
// yet to clock, the newest packet read; 0 when no window is open.
func (ws *windows) lag(clock time.Duration) time.Duration {
	from := ws.fromNs.Load()
	if from == noWindow {
		return 0
	}
	return max(clock-time.Duration(from), 0)
}

// run is the flusher: it takes window after window, one part from every
// shard in shard order, completes it and hands the DBs back, until the
// final window or the abort.
func (ws *windows) run() {
	defer close(ws.done)
	parts := make([]*flowdb.DB, len(ws.sealed))
	for {
		var p sealedPart
		for i, c := range ws.sealed {
			select {
			case p = <-c:
				parts[i] = p.db
			case <-ws.quit:
				return
			}
		}
		ws.err = ws.store.Flush(p.start, p.start+ws.width, parts...)
		for _, db := range parts {
			db.Reset()
		}
		if p.final {
			ws.fromNs.Store(noWindow)
			return
		}
		ws.fromNs.Store(int64(p.next))
		for i, db := range parts {
			ws.free[i] <- db
		}
	}
}

// seal hands shard i's part to the flusher and returns the DB the shard
// fills next. After an abort the flusher may be gone: the shard then gets
// a fresh DB, so the batch in hand can finish, and nothing reads it.
func (ws *windows) seal(i int, p sealedPart) *flowdb.DB {
	select {
	case ws.sealed[i] <- p:
	case <-ws.quit:
		return flowdb.New()
	}
	if p.final {
		return nil
	}
	select {
	case db := <-ws.free[i]:
		return db
	case <-ws.quit:
		return flowdb.New()
	}
}

// abort releases the shards and the flusher, if any, after a failed run.
func (ws *windows) abort() {
	if ws != nil {
		close(ws.quit)
	}
}

// wait returns once the flusher, if any, has returned, after every
// pipeline sealed its last window or abort released it. It returns runErr,
// else the flush error.
func (ws *windows) wait(runErr error) error {
	if ws == nil {
		return runErr
	}
	<-ws.done
	if runErr != nil {
		return runErr
	}
	return ws.err
}

// windowClock is the capture clock of the goroutine that reads packets:
// the end of the open window. A clock without a hand-off (batch runs)
// never opens a window.
type windowClock struct {
	ws  *windows
	end time.Duration
}

// cross reports whether a packet at at opens a window, and its start: the
// first packet opens the first window, and a packet at or past the open
// window's end opens the one it falls in, so an empty stretch of capture
// costs one window, not one per width.
func (c *windowClock) cross(at time.Duration) (time.Duration, bool) {
	if at < c.end || c.ws == nil {
		return 0, false
	}
	start := at.Truncate(c.ws.width)
	c.end = start + c.ws.width
	c.ws.fromNs.CompareAndSwap(noWindow, int64(start)) // the lag gauge counts from the first window
	return start, true
}

// shardWindow is one pipeline's side of the hand-off: which shard it is,
// and the start of its open window.
type shardWindow struct {
	ws    *windows
	i     int
	start time.Duration
	open  bool
}

// roll seals the open window, if any, and opens the one at start.
func (s *shardWindow) roll(h *DNHunter, start time.Duration) {
	if s.open {
		h.db = s.ws.seal(s.i, sealedPart{db: h.db, start: s.start, next: start})
	}
	s.start, s.open = start, true
}

// close seals the final window, after the pipeline flushed its last flows;
// a no-op in a batch run. The flusher empties the DB once the window is
// flushed, and the pipeline adds nothing to it after.
func (s *shardWindow) close(h *DNHunter) {
	if s == nil {
		return
	}
	s.ws.seal(s.i, sealedPart{db: h.db, start: s.start, final: true})
}
