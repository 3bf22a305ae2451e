package core

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/netio"
	"repro/internal/resolver"
)

// EngineConfig assembles an Engine.
type EngineConfig struct {
	// Shards is the number of parallel pipeline workers. Packets are hashed
	// by client address onto shards, each owning its own resolver Clist,
	// flow table, and tag state — the paper's suggested client-IP
	// sharding (§3.1.1). 0 means 1 (the exact single-threaded pipeline);
	// negative means GOMAXPROCS.
	Shards int
	// Resolver configures each shard's DNS cache replica. Note the Clist
	// size applies per shard.
	Resolver resolver.Config
	// Flows configures each shard's flow table. The engine owns the
	// table's record plumbing and sweep scheduling: OnRecord and
	// DisableAutoSweep are overridden (observe finished flows through
	// Sink.OnFlow instead), so results never depend on the shard count.
	Flows flows.Config
	// Sink receives the event stream; nil discards events.
	Sink Sink
	// Truth, when set, supplies ground-truth FQDNs for synthetic flows
	// (used only for scoring, never for labeling). For multi-source runs a
	// per-source Truth (NamedSource.Truth) takes precedence.
	Truth func(flows.Key) string
	// vantage labels events and flow records with the packet source's
	// name; runSources sets it per vantage pipeline.
	vantage string
	// windows, when non-nil, is serve mode's window hand-off: each
	// pipeline's DB becomes its open window, sealed at every window
	// boundary of the capture clock and flushed by the hand-off's flusher
	// goroutine, so Result.DB comes back empty and heap stays bounded over
	// unbounded input. Server.Serve sets it.
	windows *windows
	// shed, when non-nil, switches the dispatcher→shard rings from
	// blocking back-pressure to overload shedding with per-shard drop
	// accounting (see ShedStats). Server.Serve sets it with
	// ServeConfig.Shed; the single-shard pipeline has no ring to shed from.
	shed *ShedStats

	// batch sizes the dispatcher→shard rings: each holds ringDepth×batch
	// entries and a shard takes at most batch from its ring per pass; 0
	// means defaultBatch. Only the package's tests set it, to drive the
	// ring's boundaries.
	batch int

	// tapPipelines and tapRings are the serve-mode instrumentation seams,
	// settable only from within the package (the Server uses them). Both
	// fire on the Run goroutine after construction and before the first
	// packet: tapPipelines receives the shard pipelines (checkpoint
	// restore/snapshot), tapRings the shard rings, indexed by shard (depth
	// gauges and dispatcher park counters). tapSink wraps the sink the
	// pipelines call — Sink, already serialized when there are shards —
	// in the Server's event counters; it must be safe for concurrent use.
	tapPipelines func([]*DNHunter)
	tapRings     func([]*ring)
	tapSink      func(Sink) Sink
}

// Engine is the concurrent DN-Hunter pipeline. An Engine is an immutable
// configuration handle: every Run builds fresh resolvers, flow tables, and
// a fresh flow database, so one Engine may be reused across traces —
// concurrently, too, unless a Sink is configured: a Sink instance belongs
// to one run at a time (its events would interleave across runs and its
// Close would fire once per run).
//
// With Shards == 1 the Engine byte-for-byte reproduces the deterministic
// single-threaded pipeline; with Shards == N it produces the identical
// flow set and aggregate statistics, at up to N-core throughput. The one
// caveat: each shard owns a Clist of the configured size, so once a trace
// is hot enough to overflow a Clist and force evictions, labeling can
// deviate across shard counts. Size the Clist to the workload (the
// default 1M entries covers the paper's busiest vantage points) and the
// equivalence is exact.
type Engine struct {
	cfg EngineConfig
}

// NewEngine assembles an Engine, normalizing the configuration.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.batch <= 0 {
		cfg.batch = defaultBatch
	}
	return &Engine{cfg: cfg}
}

// Shards reports the resolved shard count.
func (e *Engine) Shards() int { return e.cfg.Shards }

// Result is the outcome of one Engine run: the merged labeled-flow
// database and the aggregate pipeline statistics. Readers carries the
// dispatcher's counters for sharded runs (exactly one entry; see
// ReaderStat); it lives outside Stats so the equivalence suites can keep
// comparing Stats by value across shard counts.
type Result struct {
	DB      *flowdb.DB
	Stats   Stats
	Readers []ReaderStat
}

// yieldEvery bounds how many packets are processed between explicit
// scheduler yields. The near-allocation-free hot loop no longer enters the
// scheduler via GC assists, so on a saturated GOMAXPROCS=1 machine the
// goroutines that would cancel the context (os/signal watcher, timers)
// can starve until EOF without this. A power of two; large enough that the
// yield costs well under 1% of throughput, small enough that cancellation
// latency stays in single-digit milliseconds. The context itself is
// polled every read block (≤ blockLen packets).
const yieldEvery = 8192

// Run drains the packet source through the pipeline and returns the merged
// result. It stops early with ctx.Err() when the context is cancelled. The
// configured Sink is closed exactly once before Run returns, on success,
// error, and cancellation alike.
func (e *Engine) Run(ctx context.Context, src netio.PacketSource) (*Result, error) {
	return e.runAndClose(ctx, e.adapt(src))
}

// adapt is the edge of the pipeline: the one place a user's PacketSource
// becomes the engine-facing read contract. Only the sharded engine retains
// payloads past a read (ring entries alias them); the single-shard pipeline
// finishes with each block before the next read, so it borrows the source's
// buffers and never touches the block pool.
func (e *Engine) adapt(src netio.PacketSource) netio.BlockRefSource {
	return netio.NewRefAdapter(src, nil, e.cfg.Shards > 1)
}

// runAndClose is Run past the edge adapter.
func (e *Engine) runAndClose(ctx context.Context, src netio.BlockRefSource) (*Result, error) {
	res, err := e.run(ctx, src)
	if e.cfg.Sink != nil {
		cerr := e.cfg.Sink.Close()
		if err == nil && cerr != nil {
			err = fmt.Errorf("core: closing sink: %w", cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run picks the pipeline shape for the shard count; the sink stays open.
func (e *Engine) run(ctx context.Context, src netio.BlockRefSource) (*Result, error) {
	if e.cfg.Shards <= 1 {
		return e.runSingle(ctx, src)
	}
	return e.runSharded(ctx, src)
}

// pipelineSink is the sink the pipelines call: Sink, serialized when more
// than one shard calls it, then wrapped by tapSink.
func (e *Engine) pipelineSink() Sink {
	sink := e.cfg.Sink
	if e.cfg.Shards > 1 {
		sink = SyncSink(sink)
	}
	if e.cfg.tapSink != nil {
		sink = e.cfg.tapSink(sink)
	}
	return sink
}

// newPipeline builds one shard's pipeline; the sharded engine passes its
// flow table configuration.
func (e *Engine) newPipeline(fcfg flows.Config, sink Sink) *DNHunter {
	fcfg.OnRecord = nil // engine-managed; see EngineConfig.Flows
	return New(sinkConfig(Config{
		Resolver: e.cfg.Resolver,
		Flows:    fcfg,
		Truth:    e.cfg.Truth,
		Vantage:  e.cfg.vantage,
	}, sink))
}

// abortWindows releases the window flusher, if any, and any pipeline
// waiting on it, once the read loop failed.
func (e *Engine) abortWindows() {
	if ws := e.cfg.windows; ws != nil {
		ws.abort()
	}
}

// finishWindows waits for the window flusher, if any, once every pipeline
// has sealed its last window or abortWindows released it. It returns
// runErr, else the flush error.
func (e *Engine) finishWindows(runErr error) error {
	if ws := e.cfg.windows; ws != nil {
		if err := ws.wait(); runErr == nil {
			return err
		}
	}
	return runErr
}

// readLoop is the engine's read loop, shared by every pipeline shape: it
// yields (see yieldEvery), polls the context, reads one block, hands it to
// consume, and returns the reader's block reference. consume must be done
// with — or hold its own references on — the block's payloads when it
// returns. A nil return means the source reported io.EOF.
func readLoop(ctx context.Context, src netio.BlockRefSource, consume func([]netio.Packet, *netio.Block)) error {
	done := ctx.Done()
	block := make([]netio.Packet, blockLen)
	for processed := 0; ; {
		if processed&^(yieldEvery-1) != 0 {
			processed &= yieldEvery - 1
			runtime.Gosched() // see yieldEvery
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		n, blk, err := src.ReadBlockRef(block)
		consume(block[:n], blk)
		if blk != nil {
			blk.Release(1) // the reader's own reference, after distribution
		}
		processed += n
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("core: packet source: %w", err)
		}
	}
}

// runSingle is the Shards==1 path: the legacy pipeline, inline, plus
// context polling. It reproduces the single-threaded results exactly. In
// serve mode the loop also owns the capture clock, and seals the pipeline's
// window at the packet that opens the next one.
func (e *Engine) runSingle(ctx context.Context, src netio.BlockRefSource) (*Result, error) {
	fcfg := e.cfg.Flows
	fcfg.DisableAutoSweep = false // engine-managed; see EngineConfig.Flows
	h := e.newPipeline(fcfg, e.pipelineSink())
	if e.cfg.tapPipelines != nil {
		e.cfg.tapPipelines([]*DNHunter{h})
	}
	var clock windowClock
	var win *shardWindow
	if ws := e.cfg.windows; ws != nil {
		clock, win = ws.clock(), &shardWindow{ws: ws}
		ws.start()
	}
	err := readLoop(ctx, src, func(pkts []netio.Packet, _ *netio.Block) {
		for i := range pkts {
			if start, ok := clock.cross(pkts[i].Timestamp); ok {
				win.roll(h, start)
			}
			h.HandlePacket(pkts[i])
		}
	})
	if err != nil {
		e.abortWindows()
	} else {
		h.Close()
		if win != nil {
			win.close(h)
		}
	}
	if err := e.finishWindows(err); err != nil {
		return nil, err
	}
	return &Result{DB: h.DB(), Stats: h.Stats()}, nil
}
