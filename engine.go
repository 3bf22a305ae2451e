package dnhunter

import (
	"context"
	"fmt"
	"sort"
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
	// FlowsConfig tunes the flow table (idle timeout, client networks).
	FlowsConfig = flows.Config
	// PacketSource yields packets in capture order (pcap reader, in-memory
	// slice, channel, ...).
	PacketSource = netio.PacketSource
	// ReaderStat is the sharded engine's dispatch counters (see
	// Result.Readers and the serve-mode /metrics dispatcher gauge).
	ReaderStat = core.ReaderStat
)

// MultiSink fans events out to several sinks in order.
func MultiSink(sinks ...Sink) Sink { return core.MultiSink(sinks...) }

// engineOptions is the accumulated functional-option state.
type engineOptions struct {
	cfg          core.EngineConfig
	keepDNSTimes bool
	sources      []core.NamedSource
}

// Option configures an Engine.
type Option func(*engineOptions)

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
	return func(o *engineOptions) { o.cfg.Shards = n }
}

// WithReaders does nothing: the engine has exactly one dispatcher.
//
// Deprecated: the parallel reader fan-out was removed; client-IP sharding
// (WithShards) is the engine's only parallel split.
func WithReaders(int) Option {
	return func(*engineOptions) {}
}

// WithResolver overrides the per-shard resolver configuration (default:
// 1M-entry Clist, no history).
func WithResolver(cfg ResolverConfig) Option {
	return func(o *engineOptions) { o.cfg.Resolver = cfg }
}

// WithFlows overrides the per-shard flow-table configuration (idle
// timeout, client networks). The Engine owns the table's record plumbing
// and sweep scheduling, so the OnRecord and DisableAutoSweep fields are
// ignored — observe finished flows through Sink.OnFlow instead.
func WithFlows(cfg FlowsConfig) Option {
	return func(o *engineOptions) { o.cfg.Flows = cfg }
}

// WithSink attaches the event sink. The Engine serializes all sink calls
// within a run, so implementations need no internal locking; Close fires
// exactly once per Run. A Sink instance belongs to one run at a time — an
// Engine with a sink must not run concurrently with itself.
func WithSink(s Sink) Option {
	return func(o *engineOptions) { o.cfg.Sink = s }
}

// WithTruth supplies ground-truth FQDNs for flows (used only for scoring,
// never for labeling). Engine.RunTrace wires this automatically from the
// trace sidecar.
func WithTruth(fn func(FlowKey) string) Option {
	return func(o *engineOptions) { o.cfg.Truth = fn }
}

// WithDNSTimes collects DNS response timestamps into Result.DNSTimes
// (needed by the Fig. 14 experiment).
func WithDNSTimes() Option {
	return func(o *engineOptions) { o.keepDNSTimes = true }
}

// WithSource registers one named packet source — a vantage point — for
// RunSources. Each vantage runs its own full pipeline (resolver, flow
// table, shards) concurrently with, and independently of, the others; its
// name labels every event and flow record it produces. Names must be
// non-empty and unique. Sources are consumed by one RunSources call:
// register fresh sources (or rebuild the Engine) before running again.
func WithSource(name string, src PacketSource) Option {
	return func(o *engineOptions) {
		o.sources = append(o.sources, core.NamedSource{Name: name, Src: src})
	}
}

// WithTraceSource registers a synthetic trace as a named vantage for
// RunSources, wiring the trace's ground-truth sidecar for scoring. Flow
// keys collide across vantage address spaces, so each trace must carry its
// own truth function — this option handles that.
func WithTraceSource(name string, tr *Trace) Option {
	return func(o *engineOptions) {
		o.sources = append(o.sources, core.NamedSource{Name: name, Src: tr.Source(), Truth: tr.TruthFunc()})
	}
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
	opts engineOptions
}

// NewEngine assembles an Engine from functional options. The shard count
// is resolved here (0 → 1, negative → GOMAXPROCS at construction time).
func NewEngine(opts ...Option) *Engine {
	e := &Engine{}
	for _, opt := range opts {
		opt(&e.opts)
	}
	e.opts.cfg.Shards = core.NewEngine(e.opts.cfg).Shards()
	return e
}

// Shards reports the resolved shard count.
func (e *Engine) Shards() int { return e.opts.cfg.Shards }

// Run drains the packet source through the pipeline and returns the merged
// labeled-flow database and statistics. It stops early with ctx.Err() when
// the context is cancelled; the sink's Close always fires exactly once.
func (e *Engine) Run(ctx context.Context, src PacketSource) (*Result, error) {
	return e.run(ctx, src, nil)
}

// RunTrace runs a synthetic trace through the pipeline, wiring the trace's
// ground-truth sidecar for scoring.
func (e *Engine) RunTrace(ctx context.Context, tr *Trace) (*Result, error) {
	res, err := e.run(ctx, tr.Source(), tr.TruthFunc())
	if err != nil {
		return nil, err
	}
	res.Trace = tr
	return res, nil
}

// MultiResult is the outcome of one multi-vantage RunSources call.
type MultiResult struct {
	// Vantages lists the source names in registration order.
	Vantages []string
	// PerVantage holds each vantage's own database, statistics, and (with
	// WithDNSTimes) DNS response times.
	PerVantage map[string]*Result
	// Merged combines all vantages: every flow stamped with its vantage
	// label in one database (each flow's Vantage names its partition),
	// aggregate statistics, and the merged DNS timeline.
	Merged *Result
}

// RunSources drains every vantage registered with WithSource /
// WithTraceSource through its own independent pipeline concurrently — the
// multi-vantage ingestion mode behind the paper's cross-vantage
// comparisons. The configured Sink is shared (events carry Vantage labels;
// Close fires exactly once); nothing else couples the vantages, so a
// stalled source holds back only its own. A single registered source
// produces aggregate Stats and flow multisets identical to Run over that
// source.
func (e *Engine) RunSources(ctx context.Context) (*MultiResult, error) {
	if len(e.opts.sources) == 0 {
		return nil, fmt.Errorf("dnhunter: RunSources: no sources registered (use WithSource)")
	}
	cfg := e.opts.cfg
	perDNS := make(map[string][]time.Duration)
	if e.opts.keepDNSTimes {
		collector := &FuncSink{DNS: func(ev DNSEvent) { perDNS[ev.Vantage] = append(perDNS[ev.Vantage], ev.At) }}
		if cfg.Sink != nil {
			cfg.Sink = MultiSink(cfg.Sink, collector)
		} else {
			cfg.Sink = collector
		}
	}
	out, err := core.NewEngine(cfg).RunSources(ctx, e.opts.sources)
	if err != nil {
		return nil, err
	}
	mr := &MultiResult{
		Vantages:   out.Vantages,
		PerVantage: make(map[string]*Result, len(out.Vantages)),
		Merged:     &Result{DB: out.DB, Stats: out.Stats},
	}
	for _, name := range out.Vantages {
		vr := out.PerVantage[name]
		res := &Result{DB: vr.DB, Stats: vr.Stats}
		if e.opts.keepDNSTimes {
			res.DNSTimes = perDNS[name]
			// Shards (and sink interleaving) deliver DNS events out of
			// trace order; restore it.
			sort.Slice(res.DNSTimes, func(i, j int) bool { return res.DNSTimes[i] < res.DNSTimes[j] })
			mr.Merged.DNSTimes = append(mr.Merged.DNSTimes, res.DNSTimes...)
		}
		mr.PerVantage[name] = res
	}
	if e.opts.keepDNSTimes {
		sort.Slice(mr.Merged.DNSTimes, func(i, j int) bool { return mr.Merged.DNSTimes[i] < mr.Merged.DNSTimes[j] })
	}
	return mr, nil
}

func (e *Engine) run(ctx context.Context, src PacketSource, truth func(FlowKey) string) (*Result, error) {
	cfg := e.opts.cfg
	if cfg.Truth == nil {
		cfg.Truth = truth
	}
	res := &Result{}
	if e.opts.keepDNSTimes {
		collector := &FuncSink{DNS: func(ev DNSEvent) { res.DNSTimes = append(res.DNSTimes, ev.At) }}
		if cfg.Sink != nil {
			cfg.Sink = MultiSink(cfg.Sink, collector)
		} else {
			cfg.Sink = collector
		}
	}
	eng := core.NewEngine(cfg)
	out, err := eng.Run(ctx, src)
	if err != nil {
		return nil, err
	}
	res.DB, res.Stats, res.Readers = out.DB, out.Stats, out.Readers
	if eng.Shards() > 1 {
		// Shards deliver DNS events interleaved; restore trace order.
		sort.Slice(res.DNSTimes, func(i, j int) bool { return res.DNSTimes[i] < res.DNSTimes[j] })
	}
	return res, nil
}
