package dnhunter

import (
	"context"
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/flows"
	"repro/internal/netio"
)

// Sink re-exports and adapters: the event-stream interface through which
// callers observe tags, DNS responses and finished flows.
type (
	// Sink receives pipeline events (tags, DNS responses, finished flows)
	// and a Close at end of run. Embed NopSink to implement it partially.
	Sink = core.Sink
	// NopSink ignores every event; embed it in custom sinks.
	NopSink = core.NopSink
	// FuncSink adapts plain functions to the Sink interface.
	FuncSink = core.FuncSink
	// PacketSource yields packets in capture order (pcap reader, in-memory
	// slice, channel, ...).
	PacketSource = netio.PacketSource
	// ReaderStat is the sharded engine's dispatch counters (see
	// Result.Readers and the serve-mode /metrics counter
	// dnhunter_reader_mesh_full_parks_total).
	ReaderStat = core.ReaderStat
	// Result is the outcome of one Run: the labeled-flow database, the
	// aggregate statistics and the dispatcher's counters (Readers, one
	// entry for sharded runs).
	Result = core.Result
	// NamedSource is one vantage point's packet feed for RunSources: a
	// unique non-empty Name stamped on its events and flow records, its
	// PacketSource, and an optional per-vantage Truth for scoring.
	NamedSource = core.NamedSource
	// MultiResult is the outcome of one RunSources call: per-vantage
	// results, the failed vantages' errors, and the merged database and
	// statistics of the survivors.
	MultiResult = core.MultiResult
)

// FlowsConfig tunes each shard's flow table.
type FlowsConfig struct {
	// IdleTimeout evicts flows with no traffic for this long. Zero means
	// the paper-style default of 5 minutes.
	IdleTimeout time.Duration
	// ClientNets orients flows when no SYN is seen: an address inside any
	// of these prefixes is the client. Empty falls back to
	// first-sender-is-client.
	ClientNets []netip.Prefix
}

// Option configures an Engine.
type Option func(*core.EngineConfig)

// WithShards sets the number of parallel pipeline shards. Packets are
// hashed by client address onto shards, each owning its own resolver
// Clist, flow table, and pending-tag map. 1 (the default) reproduces the
// deterministic single-threaded pipeline exactly; any n produces the
// identical flow set and aggregate statistics as long as the per-shard
// Clist never overflows (evictions are per-shard, so an overflowing
// Clist labels slightly differently across shard counts — size it to the
// workload; the 1M-entry default has ample headroom). Pass a negative
// value to use one shard per available CPU.
func WithShards(n int) Option {
	return func(c *core.EngineConfig) { c.Shards = n }
}

// WithReaders does nothing: the engine has exactly one dispatcher.
//
// Deprecated: the parallel reader fan-out was removed; client-IP sharding
// (WithShards) is the engine's only parallel split.
func WithReaders(int) Option {
	return func(*core.EngineConfig) {}
}

// WithResolver overrides the per-shard resolver configuration (default:
// 1M-entry Clist).
func WithResolver(cfg ResolverConfig) Option {
	return func(c *core.EngineConfig) { c.Resolver = cfg }
}

// WithFlows overrides the per-shard flow-table configuration (idle
// timeout, client networks).
func WithFlows(cfg FlowsConfig) Option {
	return func(c *core.EngineConfig) {
		c.Flows = flows.Config{IdleTimeout: cfg.IdleTimeout, ClientNets: cfg.ClientNets}
	}
}

// WithSink attaches the event sink. The Engine serializes all sink calls
// within a run, so implementations need no internal locking; Close fires
// exactly once per Run. A Sink instance belongs to one run at a time — an
// Engine with a sink must not run concurrently with itself.
func WithSink(s Sink) Option {
	return func(c *core.EngineConfig) { c.Sink = s }
}

// WithTruth supplies ground-truth FQDNs for flows (used only for scoring,
// never for labeling). Engine.RunTrace wires this automatically from the
// trace sidecar.
func WithTruth(fn func(FlowKey) string) Option {
	return func(c *core.EngineConfig) { c.Truth = fn }
}

// Engine is the DN-Hunter pipeline, sharded across cores: the one entry
// point for batch and serve runs. An Engine is an immutable configuration
// handle — every Run builds fresh per-shard state and a
// fresh flow database, so one Engine may be reused across traces, even
// concurrently unless a Sink is configured (a Sink instance belongs to
// one run at a time).
//
//	eng := dnhunter.NewEngine(dnhunter.WithShards(-1))
//	res, err := eng.RunTrace(ctx, trace)
type Engine struct {
	cfg core.EngineConfig
}

// NewEngine assembles an Engine from functional options. The shard count
// is resolved here (0 → 1, negative → GOMAXPROCS at construction time).
func NewEngine(opts ...Option) *Engine {
	e := &Engine{}
	for _, opt := range opts {
		opt(&e.cfg)
	}
	e.cfg.Shards = core.NewEngine(e.cfg).Shards()
	return e
}

// Shards reports the resolved shard count.
func (e *Engine) Shards() int { return e.cfg.Shards }

// Run drains the packet source through the pipeline and returns the merged
// labeled-flow database and statistics. It stops early with ctx.Err() when
// the context is cancelled; the sink's Close always fires exactly once.
func (e *Engine) Run(ctx context.Context, src PacketSource) (*Result, error) {
	return core.NewEngine(e.cfg).Run(ctx, src)
}

// RunTrace runs a synthetic trace through the pipeline, wiring the trace's
// ground-truth sidecar for scoring unless WithTruth set one.
func (e *Engine) RunTrace(ctx context.Context, tr *Trace) (*Result, error) {
	run := *e
	if run.cfg.Truth == nil {
		run.cfg.Truth = tr.TruthFunc()
	}
	return run.Run(ctx, tr.Source())
}

// RunSources drains each named source — a vantage point — through its own
// independent pipeline (resolver, flow table, shards) concurrently: the
// multi-vantage ingestion mode behind the paper's cross-vantage
// comparisons. The configured Sink is shared (events carry Vantage labels;
// Close fires exactly once); nothing else couples the vantages, so a
// stalled source holds back only its own. A single source produces
// aggregate Stats and flow multisets identical to Run over that source.
//
// A failed vantage does not fail its siblings: RunSources then returns the
// survivors' MultiResult, with each failure in MultiResult.Errors, next to
// an error joining every vantage error. Cancellation and misuse (no,
// unnamed or duplicate sources) return no result.
func (e *Engine) RunSources(ctx context.Context, sources ...NamedSource) (*MultiResult, error) {
	return core.NewEngine(e.cfg).RunSources(ctx, sources)
}
