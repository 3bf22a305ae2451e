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
	"sort"
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
	// parse.
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
// methods are safe for concurrent use while the engine runs; the
// internal/serve HTTP endpoint reads them on every scrape.
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

// Bytes returns frame bytes read from the source.
func (m *ServeMetrics) Bytes() uint64 { return m.bytes.Load() }

// TraceClock returns the newest packet timestamp read (trace time).
func (m *ServeMetrics) TraceClock() time.Duration { return time.Duration(m.clockNs.Load()) }

// Tags returns flows tagged at first packet.
func (m *ServeMetrics) Tags() uint64 { return m.tags.Load() }

// DNSResponses returns decoded address-bearing DNS responses.
func (m *ServeMetrics) DNSResponses() uint64 { return m.dnsResponses.Load() }

// Flows returns finished labeled-flow records emitted.
func (m *ServeMetrics) Flows() uint64 { return m.flows.Load() }

// LabeledFlows returns emitted records that carried a label.
func (m *ServeMetrics) LabeledFlows() uint64 { return m.labeled.Load() }

// RestoredEntries returns resolver entries restored from the checkpoint.
func (m *ServeMetrics) RestoredEntries() uint64 { return m.restored.Load() }

// Draining reports whether the serve context was cancelled and the engine
// is flushing its final state.
func (m *ServeMetrics) Draining() bool { return m.draining.Load() }

// Degraded reports whether the engine is serving in a degraded state: the
// source needed at least one supervised restart, or the checkpoint was
// rejected and serving began from a counted fresh start. Degraded is
// sticky for the run — it marks "results may have gaps", which a later
// recovery does not un-happen.
func (m *ServeMetrics) Degraded() bool { return m.degraded.Load() }

// SourceErrors returns the supervised source's classified error counters:
// transient (recovered by restart) and fatal (ended the run).
func (m *ServeMetrics) SourceErrors() (transient, fatal uint64) {
	return m.faultTransient.Load(), m.faultFatal.Load()
}

// SourceRestarts returns completed supervised source restarts.
func (m *ServeMetrics) SourceRestarts() uint64 { return m.restarts.Load() }

// RestartBudget returns the restart error budget: the policy's total
// (zero when supervision is off) and how much of it remains.
func (m *ServeMetrics) RestartBudget() (total, remaining int64) {
	total = m.restartBudget.Load()
	remaining = total - int64(m.restarts.Load())
	if remaining < 0 {
		remaining = 0
	}
	return total, remaining
}

// CheckpointFreshStarts counts checkpoint files rejected at startup
// (corrupt, truncated, or future-version), each answered by serving from
// empty resolver state instead of failing.
func (m *ServeMetrics) CheckpointFreshStarts() uint64 { return m.freshStarts.Load() }

// WindowsFlushed returns completed flowdb windows handed to FlushWindow.
func (m *ServeMetrics) WindowsFlushed() uint64 {
	if w := m.win.Load(); w != nil {
		return w.WindowsFlushed()
	}
	return 0
}

// WindowFlushLag returns how much trace time of flows the open window is
// currently buffering (see flowdb.Windowed.FlushLag).
func (m *ServeMetrics) WindowFlushLag() time.Duration {
	if w := m.win.Load(); w != nil {
		return w.FlushLag()
	}
	return 0
}

// RingDepths returns each shard ring's backlog — published-but-unreleased
// entries in units of Batch, rounded up — indexed by shard; nil for a
// single-shard engine (no rings). A depth pinned at the ring capacity (8)
// is a saturated shard.
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

// ArenaStats returns the shared payload block pool's lifecycle counters
// (process-wide: the pool is shared by every engine in the process).
func (m *ServeMetrics) ArenaStats() netio.BlockPoolStats {
	return netio.DefaultBlockPool().Stats()
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
	cfg.DiscardDB = true
	if s.scfg.Shed {
		cfg.Shed = &s.metrics.Shed
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
		Packets:         s.metrics.Packets(),
		Bytes:           s.metrics.Bytes(),
		Windows:         win.WindowsFlushed(),
		Dropped:         s.metrics.Shed.Totals(),
		RestoredEntries: len(s.restored),
		SourceRestarts:  s.metrics.SourceRestarts(),
		FreshStart:      s.freshStart,
	}
	if s.scfg.CheckpointPath != "" {
		snap := s.snapshotPipelines()
		if err := writeCheckpointFile(s.scfg.CheckpointPath, snap); err != nil {
			return rep, fmt.Errorf("core: writing checkpoint: %w", err)
		}
		rep.CheckpointedEntries = len(snap)
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

// snapshotPipelines merges every shard's Clist snapshot into one
// checkpoint, ordered by response time (each shard's list is already
// time-ordered; the stable merge keeps the aggregate FIFO faithful).
func (s *Server) snapshotPipelines() []resolver.SnapshotEntry {
	var all []resolver.SnapshotEntry
	for _, h := range s.pipes {
		all = append(all, h.Resolver().Snapshot()...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// writeCheckpointFile writes entries atomically: temp file in the target
// directory, fsync, rename.
func writeCheckpointFile(path string, entries []resolver.SnapshotEntry) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := resolver.WriteSnapshot(f, entries); err != nil {
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
