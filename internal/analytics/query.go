package analytics

// The unified analytics entry surface. Historically every analysis in
// this package was a free function over a fully materialized *flowdb.DB —
// fine for batch runs, incompatible with Server.Serve, whose windowed
// store discards each window's flows right after flushing it. Query is
// the incremental form: an analysis that observes one flow at a time and
// snapshots a deterministic result on demand. Pipeline is the registry
// that feeds a set of queries from either source — a one-shot DB walk in
// batch mode, or flowdb.Windowed's pre-discard observer in serve mode.
//
// Two families implement Query:
//
//   - the exact reference implementations in exact.go (paper-fidelity,
//     unbounded state — they hold full key sets), and
//   - the sketch-based streaming versions in the stream subpackage
//     (bounded state, documented error bounds).
//
// Snapshots must be deterministic: byte-identical for the same observed
// multiset of flows regardless of shard count. Every implementation
// sorts before emitting and defers any truncation to Snapshot.

import (
	"fmt"
	"net/netip"
	"sync"

	"repro/internal/flowdb"
	"repro/internal/orgdb"
)

// Result is one query's snapshot: a JSON-marshalable, deterministic
// value. The concrete type is fixed per query (see each constructor).
type Result any

// Query is one incremental analysis over the labeled-flow stream.
type Query interface {
	// Name identifies the query inside a Pipeline (registry key, JSON
	// field, metrics label).
	Name() string
	// Observe folds one flow into the query state. The pointer is only
	// valid during the call (serve mode recycles the window's storage
	// right after) — implementations must copy what they keep, never
	// retain f. Passed by pointer because a pipeline fans each flow out
	// to every registered query; by-value would copy the ~200-byte
	// record once per query per flow on the hot path. Not safe for
	// concurrent use; the Pipeline serializes it.
	Observe(f *flowdb.LabeledFlow)
	// Snapshot returns the current result. It must not retain or be
	// invalidated by later Observe calls, and must be deterministic for
	// a given observed multiset of flows.
	Snapshot() Result
}

// OrgLookup resolves a server address to its hosting organization, per
// vantage point (multi-vantage runs carry different IP→org tables per
// geography; vantage is empty for single-source runs). A nil OrgLookup
// is valid everywhere one is accepted and resolves nothing.
type OrgLookup func(vantage string, addr netip.Addr) (org string, ok bool)

// OrgLookupDB adapts a single org database, ignoring the vantage.
func OrgLookupDB(odb *orgdb.DB) OrgLookup {
	if odb == nil {
		return nil
	}
	return func(_ string, addr netip.Addr) (string, bool) { return odb.Lookup(addr) }
}

// OrgLookupVantages routes lookups to each vantage's own org database.
// Flows from unknown vantages (including unstamped ones) resolve through
// the first entry.
func OrgLookupVantages(vantages []VantageData) OrgLookup {
	if len(vantages) == 0 {
		return nil
	}
	tables := make(map[string]*orgdb.DB, len(vantages))
	for _, v := range vantages {
		tables[v.Name] = v.Orgs
	}
	first := vantages[0].Orgs
	return func(vantage string, addr netip.Addr) (string, bool) {
		odb, ok := tables[vantage]
		if !ok || odb == nil {
			odb = first
		}
		if odb == nil {
			return "", false
		}
		return odb.Lookup(addr)
	}
}

// OrgOrUnknown applies a lookup with the "unknown" fallback every
// org-keyed query, exact or streaming, reports.
func OrgOrUnknown(lookup OrgLookup, vantage string, addr netip.Addr) string {
	if lookup != nil {
		if org, ok := lookup(vantage, addr); ok {
			return org
		}
	}
	return "unknown"
}

// QueryResult pairs a query name with its snapshot; Pipeline.Snapshot
// returns them in registration order.
type QueryResult struct {
	Name   string `json:"name"`
	Result Result `json:"result"`
}

// Pipeline is the query registry: the single entry point for both batch
// and streaming analytics. Register queries by name, feed flows with
// Observe/ObserveDB/ObserveWindow, and read results with Snapshot.
// All methods are safe for concurrent use; Observe serializes under one
// mutex, so a Pipeline fed from the serving goroutine can be snapshotted
// live by the HTTP endpoint.
type Pipeline struct {
	mu       sync.Mutex
	queries  []Query
	byName   map[string]int
	observed uint64
}

// NewPipeline builds a pipeline over the given queries. It panics on a
// duplicate name — registration is configuration, and a collision there
// is a programming error, not a runtime condition.
func NewPipeline(queries ...Query) *Pipeline {
	p := &Pipeline{byName: make(map[string]int)}
	for _, q := range queries {
		if err := p.Register(q); err != nil {
			panic(err)
		}
	}
	return p
}

// Register adds one query; names must be unique within the pipeline.
func (p *Pipeline) Register(q Query) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	name := q.Name()
	if _, dup := p.byName[name]; dup {
		return fmt.Errorf("analytics: duplicate query name %q", name)
	}
	p.byName[name] = len(p.queries)
	p.queries = append(p.queries, q)
	return nil
}

// Names returns the registered query names in registration order.
func (p *Pipeline) Names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.queries))
	for i, q := range p.queries {
		out[i] = q.Name()
	}
	return out
}

// Query returns the registered query by name.
func (p *Pipeline) Query(name string) (Query, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.byName[name]
	if !ok {
		return nil, false
	}
	return p.queries[i], true
}

// Observe feeds one flow to every registered query. The flow is only
// read during the call.
func (p *Pipeline) Observe(f *flowdb.LabeledFlow) {
	p.mu.Lock()
	p.observed++
	for _, q := range p.queries {
		q.Observe(f)
	}
	p.mu.Unlock()
}

// ObserveDB feeds every flow of a materialized database — the batch-mode
// entry point, equivalent to having streamed the DB's flows in order.
func (p *Pipeline) ObserveDB(db *flowdb.DB) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		p.observed++
		for _, q := range p.queries {
			q.Observe(&f)
		}
	}
}

// ObserveWindow feeds one completed window — the streaming-mode entry
// point, shaped to drop into flowdb.WindowConfig.Observe (and, via
// core.ServeConfig.ObserveWindow, Server.Serve). The window's DB is only
// read during the call, honoring the pre-discard lifetime contract.
func (p *Pipeline) ObserveWindow(w flowdb.Window) {
	p.ObserveDB(w.DB)
}

// Observed returns the number of flows fed so far.
func (p *Pipeline) Observed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.observed
}

// Snapshot returns every query's current result in registration order.
func (p *Pipeline) Snapshot() []QueryResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]QueryResult, len(p.queries))
	for i, q := range p.queries {
		out[i] = QueryResult{Name: q.Name(), Result: q.Snapshot()}
	}
	return out
}

// Shared result types. The streaming and exact top-k queries both
// snapshot TopKResult, so the differential tests (and any consumer)
// compare like with like.

// TopEntry is one ranked key of a TopKResult.
type TopEntry struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	// Err bounds the sketch overestimate: the true count lies in
	// [Count-Err, Count]. Exact queries report 0.
	Err uint64 `json:"err,omitempty"`
}

// TopKResult ranks the heaviest keys of one dimension.
type TopKResult struct {
	// K is the requested rank depth; Entries holds min(K, distinct keys).
	K int `json:"k"`
	// Observed counts the flows that contributed a key.
	Observed uint64 `json:"observed"`
	// Capacity is the sketch's counter budget (0 for exact queries). Any
	// key with true count > Observed/Capacity is guaranteed present.
	Capacity int        `json:"capacity,omitempty"`
	Entries  []TopEntry `json:"entries"`
}

// CardinalityEntry is one key's estimated distinct-count.
type CardinalityEntry struct {
	Key string `json:"key"`
	// Count is the (estimated) number of distinct values. Exact queries
	// report whole numbers.
	Count float64 `json:"count"`
}

// CardinalityResult estimates distinct-value footprints per key (e.g.
// distinct server addresses per SLD).
type CardinalityResult struct {
	K int `json:"k"`
	// StdError is the estimator's relative standard error (1.04/√m for
	// an HLL with m registers; 0 for exact queries).
	StdError float64 `json:"std_error,omitempty"`
	// TrackedKeys is how many keys hold a live estimator; DroppedFlows
	// counts flows to keys beyond the tracking budget.
	TrackedKeys  int    `json:"tracked_keys"`
	DroppedFlows uint64 `json:"dropped_flows,omitempty"`
	// Total estimates the distinct values across all keys combined.
	Total   float64            `json:"total"`
	Entries []CardinalityEntry `json:"entries"`
}

// ProviderShare is one hosting org's slice of a vantage's labeled flows.
type ProviderShare struct {
	Org   string  `json:"org"`
	Flows uint64  `json:"flows"`
	Share float64 `json:"share"`
	// Servers is the (estimated) count of distinct server addresses the
	// org served this vantage from.
	Servers float64 `json:"servers"`
}

// ProviderUsageResult is the streaming provider footprint: per vantage,
// the top hosting orgs by flow share (the Table 5 / Fig. 9 aggregate).
type ProviderUsageResult struct {
	// Vantages sorted by name (merge-order independence; the exact
	// ProviderFootprint keeps input order instead).
	Vantages []string `json:"vantages"`
	// Orgs is the union of hosting orgs ranked by total flows across
	// vantages (ties alphabetical), truncated to the requested k.
	Orgs []string `json:"orgs"`
	// PerVantage maps vantage → ranked provider shares (same org cut).
	PerVantage map[string][]ProviderShare `json:"per_vantage"`
	// LabeledFlows is each vantage's labeled-flow denominator.
	LabeledFlows map[string]uint64 `json:"labeled_flows"`
}

// ProtoCoverage is one protocol's tagging coverage.
type ProtoCoverage struct {
	Proto   string  `json:"proto"`
	Total   uint64  `json:"total"`
	Labeled uint64  `json:"labeled"`
	Ratio   float64 `json:"ratio"`
}

// CoverageResult is the streaming form of flowdb.LabelCoverage: per-L7
// tagging coverage past the warm-up (Table 2's measurement).
type CoverageResult struct {
	WarmupSeconds float64         `json:"warmup_seconds"`
	Protocols     []ProtoCoverage `json:"protocols"`
}
