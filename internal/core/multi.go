package core

// Multi-vantage execution (RunSources): the paper deploys DN-Hunter at four
// vantage points (EU1 FTTH/ADSL, EU2, US) and all its cross-vantage results
// (Figs. 7-9, Tables 5-8) compare the outputs. RunSources ingests several
// named packet sources in ONE run: each vantage gets its own full pipeline
// (resolver Clist, flow table, flow database — clients at different vantage
// points live in unrelated, possibly colliding address spaces, so no state
// may be shared), driven by its own reader goroutine and, with Shards > 1,
// its own dispatcher and shard workers.
//
// A merged virtual clock couples the readers: every vantage publishes its
// current trace time, and a reader blocks while it is more than MergeWindow
// ahead of the slowest still-active vantage. The vantages therefore sweep
// through trace time together, so a shared Sink observes a roughly
// time-aligned interleave of per-vantage event streams instead of one trace
// completing before the next starts. Pacing never changes results — each
// vantage's pipeline is deterministic in isolation — it only bounds skew.
//
// Equivalence: a single-source RunSources runs exactly the code path of Run
// (pacing is skipped for one source), so its aggregate Stats and flow
// multiset are identical to Run's at any shard count; the only difference
// is the vantage label stamped on events and records.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/netio"
)

// defaultMergeWindow is the virtual-clock skew bound applied when
// EngineConfig.MergeWindow is zero.
const defaultMergeWindow = time.Minute

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

// vclock is the merged virtual clock: a bounded-skew barrier over the
// vantage readers' trace times.
type vclock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	window time.Duration
	times  []time.Duration
	done   []bool
	closed bool // cancellation: all waits return immediately
}

func newVClock(n int, window time.Duration) *vclock {
	c := &vclock{window: window, times: make([]time.Duration, n), done: make([]bool, n)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// minActive returns the smallest published time among unfinished vantages.
// Callers hold c.mu.
func (c *vclock) minActive() (time.Duration, bool) {
	min, any := time.Duration(0), false
	for i, t := range c.times {
		if c.done[i] {
			continue
		}
		if !any || t < min {
			min, any = t, true
		}
	}
	return min, any
}

// advance publishes vantage i's trace time and blocks while i is more than
// window ahead of the slowest active vantage. The slowest vantage is never
// blocked, so progress is always possible.
func (c *vclock) advance(i int, t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.times[i] {
		c.times[i] = t
		// Raising this vantage's time may raise the minimum and release
		// waiters.
		c.cond.Broadcast()
	}
	for !c.closed {
		min, any := c.minActive()
		if !any || t <= min+c.window {
			return
		}
		c.cond.Wait()
	}
}

// finish removes vantage i from the skew computation (EOF or error), so a
// short trace never holds the others back.
func (c *vclock) finish(i int) {
	c.mu.Lock()
	c.done[i] = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// close releases every waiter permanently (run cancelled or failed).
func (c *vclock) close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// pacedSource wraps a vantage's source with merged-clock pacing. It enters
// the clock only when trace time has advanced by a tick, and at block
// granularity (on the newest timestamp read) — pacing is a coarse-grained
// rendezvous, so the per-packet hot path stays lock-free.
type pacedSource struct {
	src   netio.BlockRefSource
	clock *vclock
	idx   int
	tick  time.Duration
	next  time.Duration // next trace time at which to enter the clock
}

func (p *pacedSource) ReadBlockRef(dst []netio.Packet) (int, *netio.Block, error) {
	n, blk, err := p.src.ReadBlockRef(dst)
	if n > 0 {
		if ts := dst[n-1].Timestamp; ts >= p.next {
			p.next = ts + p.tick
			p.clock.advance(p.idx, ts)
		}
	}
	return n, blk, err
}

// RunSources drains every named source through its own vantage pipeline
// concurrently and returns per-vantage and merged results. Source names
// must be non-empty and unique. The configured Sink is shared across
// vantages (calls are serialized; events carry the vantage name) and closed
// exactly once, on success, error, and cancellation alike. See MergeWindow
// for the virtual-clock coupling between sources.
//
// Vantage failures are isolated: a failing source does not cancel its
// siblings. When some (but not all) vantages fail, RunSources returns a
// partial MultiResult — surviving vantages merged as usual, failures
// recorded in MultiResult.Errors — alongside a non-nil error joining
// every vantage error (errors.Join; errors.Is matches each underlying
// cause). Only caller cancellation aborts the whole run, returning
// (nil, ctx.Err()).
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
	window := e.cfg.MergeWindow
	if window == 0 {
		window = defaultMergeWindow
	}
	clock := newVClock(len(sources), window)
	pace := len(sources) > 1 && window > 0

	// One cancellation scope for the whole run. Only the caller's ctx
	// cancels it: a failing vantage merely finishes its clock slot (so
	// survivors never stall on it) and records its error — failure
	// isolation, not fate sharing.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-runCtx.Done():
			clock.close()
		case <-stopWatch:
		}
	}()
	defer close(stopWatch)

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
		go func(i int, s NamedSource) {
			defer wg.Done()
			defer clock.finish(i) // a dead vantage must not stall the clock
			sub := *e
			sub.cfg.Vantage = s.Name
			sub.cfg.Sink = shared
			if s.Truth != nil {
				sub.cfg.Truth = s.Truth
			}
			src := sub.adapt(s.Src)
			if pace {
				src = &pacedSource{src: src, clock: clock, idx: i, tick: window / 8}
			}
			var out vantageOut
			out.res, out.err = sub.run(runCtx, src)
			if out.err != nil {
				out.err = fmt.Errorf("vantage %q: %w", s.Name, out.err)
			}
			outs[i] = out
		}(i, s)
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
