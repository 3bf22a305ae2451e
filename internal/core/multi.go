package core

// Multi-vantage execution (RunSources): the paper deploys DN-Hunter at four
// vantage points (EU1 FTTH/ADSL, EU2, US) and all its cross-vantage results
// (Figs. 7-9, Tables 5-8) compare the per-vantage outputs after the fact.
// RunSources ingests several named packet sources in ONE run as N
// independent engines: each vantage gets its own full pipeline (resolver
// Clist, flow table, flow database — clients at different vantage points
// live in unrelated, possibly colliding address spaces, so no state may be
// shared), driven by its own read loop and, with Shards > 1, its own
// dispatcher and shard workers. Nothing couples the vantages but the
// shared Sink, so a stalled source holds back only its own vantage.
//
// Equivalence: a single-source RunSources runs exactly the code path of Run,
// so its aggregate Stats and flow multiset are identical to Run's at any
// shard count; the only difference is the vantage label stamped on events
// and records.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/netio"
)

// NamedSource is one vantage point's packet feed for RunSources.
type NamedSource struct {
	// Name labels the vantage; it must be non-empty and unique within one
	// RunSources call. It appears on every event and flow record.
	Name string
	// Src yields the vantage's packets in capture order.
	Src netio.PacketSource
	// Truth optionally overrides EngineConfig.Truth for this vantage:
	// synthetic multi-vantage runs need per-trace sidecars because flow
	// keys collide across vantage address spaces.
	Truth func(flows.Key) string
}

// MultiResult is the outcome of one RunSources call.
type MultiResult struct {
	// Vantages lists the source names in registration order.
	Vantages []string
	// PerVantage holds each vantage's own labeled-flow database and stats.
	// Failed vantages have no entry; consult Errors for them.
	PerVantage map[string]*Result
	// Errors records each failed vantage's error by name: one vantage
	// point going dark degrades the run to the surviving vantages instead
	// of killing it (the paper's four capture points fail independently).
	// Empty on a fully successful run.
	Errors map[string]error
	// DB is the merged database: every surviving vantage's flows, each
	// stamped with its vantage label, merged in registration order
	// (deterministic for a fixed source list).
	DB *flowdb.DB
	// Stats aggregates the surviving vantages' counters.
	Stats Stats
}

// RunSources drains every named source through its own vantage pipeline
// concurrently and returns per-vantage and merged results. Source names
// must be non-empty and unique. The configured Sink is shared across
// vantages (calls are serialized; events carry the vantage name) and closed
// exactly once, on success, error, and cancellation alike.
//
// Vantage failures are isolated: a failing or stalled source does not
// cancel or hold back its siblings. When some (but not all) vantages fail,
// RunSources returns a partial MultiResult — surviving vantages merged as
// usual, failures recorded in MultiResult.Errors — alongside a non-nil
// error joining every vantage error (errors.Join; errors.Is matches each
// underlying cause). Only caller cancellation aborts the whole run,
// returning (nil, ctx.Err()).
func (e *Engine) RunSources(ctx context.Context, sources []NamedSource) (*MultiResult, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: RunSources: no sources")
	}
	seen := make(map[string]bool, len(sources))
	for _, s := range sources {
		if s.Name == "" {
			return nil, fmt.Errorf("core: RunSources: unnamed source")
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("core: RunSources: duplicate source %q", s.Name)
		}
		seen[s.Name] = true
		if s.Src == nil {
			return nil, fmt.Errorf("core: RunSources: source %q has no PacketSource", s.Name)
		}
	}

	res, err := e.runSources(ctx, sources)
	if e.cfg.Sink != nil {
		cerr := e.cfg.Sink.Close()
		if err == nil && cerr != nil {
			err = fmt.Errorf("core: closing sink: %w", cerr)
		}
	}
	return res, err
}

func (e *Engine) runSources(ctx context.Context, sources []NamedSource) (*MultiResult, error) {
	// The sink is shared across concurrently running vantage pipelines, so
	// serialize it once here; per-vantage engines must not close it.
	shared := SyncSink(e.cfg.Sink)

	type vantageOut struct {
		res *Result
		err error
	}
	outs := make([]vantageOut, len(sources))
	var wg sync.WaitGroup
	for i, s := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := *e
			sub.cfg.vantage = s.Name
			sub.cfg.Sink = shared
			if s.Truth != nil {
				sub.cfg.Truth = s.Truth
			}
			res, err := sub.run(ctx, sub.adapt(s.Src))
			if err != nil {
				err = fmt.Errorf("vantage %q: %w", s.Name, err)
			}
			outs[i] = vantageOut{res, err}
		}()
	}
	wg.Wait()

	// Caller cancellation aborts the whole run; every vantage error is
	// then just collateral of the shared cancellation, so report only the
	// context error and no partial result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Build the partial (possibly complete) result: survivors merge as
	// usual, failures are recorded per vantage and joined into one error
	// so no failure hides behind another.
	mr := &MultiResult{
		PerVantage: make(map[string]*Result, len(sources)),
		Errors:     make(map[string]error),
	}
	var errs []error
	var dbs []*flowdb.DB
	for i, s := range sources {
		mr.Vantages = append(mr.Vantages, s.Name)
		if out := outs[i]; out.err != nil {
			mr.Errors[s.Name] = out.err
			errs = append(errs, out.err)
			continue
		}
		mr.PerVantage[s.Name] = outs[i].res
		mr.Stats.Add(outs[i].res.Stats)
		dbs = append(dbs, outs[i].res.DB)
	}
	mr.DB = flowdb.New()
	mr.DB.Merge(dbs...)
	return mr, errors.Join(errs...)
}
