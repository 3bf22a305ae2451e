package core

// Streaming service mode: Serve is Run for unbounded input. A batch Run
// ingests a finite trace, accumulates every labeled flow in Result.DB,
// and exits; Serve runs until its context is cancelled, bounds memory by
// flushing flows through a rolling windowed store (flowdb.Windowed)
// instead of accumulating them, sheds load instead of stalling the reader
// when a shard backs up, and checkpoints resolver state so a restart does
// not lose the DNS→flow context the paper's Clist exists to provide.
//
// Graceful drain reuses the batch pipeline's own end-of-capture path
// rather than duplicating it: cancelling the Serve context does not
// cancel the inner engine — it makes the packet source report EOF, so the
// engine takes its normal EOF exit (flush all flows, merge stats, close the
// sink, flush the final window). Only if the drain exceeds DrainTimeout is
// the inner context hard-cancelled, which aborts without flushing, exactly
// like a cancelled batch Run.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
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

	win   atomic.Pointer[flowdb.Windowed]
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
		counter("windows_flushed_total", "completed flow-store windows flushed", func() uint64 {
			if w := m.win.Load(); w != nil {
				return w.WindowsFlushed()
			}
			return 0
		}),
		gauge("window_flush_lag_seconds", "trace time of flows buffered in the open window", func() float64 {
			if w := m.win.Load(); w != nil {
				return w.FlushLag().Seconds()
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
	// Window is the flowdb partition width in trace time; completed
	// windows are handed to FlushWindow and their memory recycled. Zero
	// means 5 minutes.
	Window time.Duration
	// ObserveWindow sees each completed window before FlushWindow and
	// before its storage is recycled (flowdb.WindowConfig.Observe) — hang
	// streaming analytics here, e.g. analytics.Pipeline.ObserveWindow. It
	// runs even when FlushWindow is nil.
	ObserveWindow func(flowdb.Window)
	// FlushWindow receives each completed window in order (see
	// flowdb.WindowConfig.Flush for the DB lifetime contract). nil
	// discards completed windows: flows are then observable only through
	// the configured Sink.
	FlushWindow func(flowdb.Window) error
	// Shed switches the dispatcher→shard rings from blocking back-pressure
	// to overload shedding with per-shard drop accounting. Only meaningful
	// with Shards > 1.
	Shed bool
	// CheckpointPath, when non-empty, names the resolver Clist checkpoint
	// file: loaded (if present) before serving and rewritten after a
	// graceful drain. Written atomically (temp file + rename).
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
// to feed the windowed store and the metrics.
func NewServer(cfg EngineConfig, scfg ServeConfig) *Server {
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
	win := flowdb.NewWindowed(flowdb.WindowConfig{Width: s.scfg.Window, Observe: s.scfg.ObserveWindow, Flush: s.scfg.FlushWindow})
	s.metrics.win.Store(win)

	cfg := s.cfg
	cfg.discardDB = true
	if s.scfg.Shed {
		cfg.shed = &s.metrics.Shed
	}
	cfg.tapPipelines = s.tapPipelines
	cfg.tapRings = func(rs []*ring) { s.metrics.rings.Store(&rs) }
	cfg.Sink = &serveSink{inner: cfg.Sink, m: &s.metrics, win: win}

	eng := NewEngine(cfg)
	ds := &drainSource{src: eng.adapt(src), m: &s.metrics}
	// Supervision sits under the drain wrapper: the drain signal must
	// keep winning (stop means EOF now, not after a backoff), so the
	// supervisor shares the drainSource's stop flag and aborts any
	// in-progress recovery when it flips.
	if s.scfg.Restart != nil {
		sup := newSupervisedSource(ds.src, eng.adapt, *s.scfg.Restart, &s.metrics)
		sup.stop = &ds.stop
		s.metrics.restartBudget.Store(int64(sup.pol.MaxRestarts))
		ds.src = sup
	}

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
		res, err := eng.runAndClose(inner, ds)
		runC <- runOut{res, err}
	}()

	var out *Result
	select {
	case r := <-runC:
		out = r.res
		if r.err != nil {
			return nil, r.err
		}
	case <-ctx.Done():
		s.metrics.draining.Store(true)
		ds.stop.Store(true)
		t := time.NewTimer(s.scfg.DrainTimeout)
		defer t.Stop()
		select {
		case r := <-runC:
			out = r.res
			if r.err != nil {
				return nil, r.err
			}
		case <-t.C:
			cancel()
			// One short grace period for the hard-cancel to unwind the
			// packet loop; a pipeline wedged beyond its reach is abandoned.
			g := time.NewTimer(drainGrace)
			defer g.Stop()
			select {
			case r := <-runC:
				out = r.res
				if r.err != nil {
					return nil, r.err
				}
			case <-g.C:
				return nil, fmt.Errorf("core: drain timed out after %v: %w", s.scfg.DrainTimeout, ctx.Err())
			}
		}
	}

	rep := &ServeReport{
		Stats:           out.Stats,
		Packets:         s.metrics.packets.Load(),
		Bytes:           s.metrics.bytes.Load(),
		Windows:         win.WindowsFlushed(),
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

// tapPipelines is the engine's construction seam: it fires before the
// first packet, on the Run goroutine, and replays the restored checkpoint
// into each shard's resolver. Entries route by the same client-address
// hash the dispatcher uses, so a checkpoint taken at one shard count
// restores correctly at any other.
func (s *Server) tapPipelines(hs []*DNHunter) {
	s.pipes = hs
	if len(s.restored) == 0 {
		return
	}
	if len(hs) == 1 {
		hs[0].Resolver().Restore(s.restored)
		return
	}
	groups := make([][]resolver.SnapshotEntry, len(hs))
	for _, se := range s.restored {
		i := shardOfAddr(se.Client, len(hs))
		groups[i] = append(groups[i], se)
	}
	for i, g := range groups {
		hs[i].Resolver().Restore(g)
	}
}

// writeCheckpointFile writes the per-shard snapshots as one checkpoint,
// atomically: temp file in the target directory, fsync, rename.
func writeCheckpointFile(path string, snaps [][]resolver.SnapshotEntry) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := resolver.WriteSnapshot(f, snaps...); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// drainSource wraps the live packet source: it counts packets, bytes, and
// the trace clock for the metrics, and turns the drain signal (stop) into
// io.EOF so the engine takes its normal end-of-capture path.
type drainSource struct {
	src  netio.BlockRefSource
	m    *ServeMetrics
	stop atomic.Bool
}

// ReadBlockRef implements netio.BlockRefSource.
func (d *drainSource) ReadBlockRef(dst []netio.Packet) (int, *netio.Block, error) {
	if d.stop.Load() {
		return 0, nil, io.EOF
	}
	n, blk, err := d.src.ReadBlockRef(dst)
	if n > 0 {
		var b uint64
		for i := 0; i < n; i++ {
			b += uint64(len(dst[i].Data))
		}
		d.m.packets.Add(uint64(n))
		d.m.bytes.Add(b)
		d.m.clockNs.Store(int64(dst[n-1].Timestamp))
	}
	return n, blk, err
}

// serveSink wraps the user sink: it counts events for the metrics and
// feeds finished flows into the windowed store. Close flushes the final
// window before closing the user sink, so the engine's end-of-run
// sequence (flush tables → emit residual flows → close sink) finishes the
// last window with every flow included.
type serveSink struct {
	inner  Sink
	m      *ServeMetrics
	win    *flowdb.Windowed
	winErr error
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
	if s.winErr == nil {
		s.winErr = s.win.Add(f)
	}
	if s.inner != nil {
		s.inner.OnFlow(f)
	}
}

// Close implements Sink.
func (s *serveSink) Close() error {
	err := s.win.Close()
	if s.winErr != nil {
		err = s.winErr
	}
	if s.inner != nil {
		if cerr := s.inner.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
