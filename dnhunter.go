// Package dnhunter is the public facade of the DN-Hunter reproduction
// (Bermudez et al., "DNS to the Rescue: Discerning Content and Services in
// a Tangled Web", ACM IMC 2012).
//
// DN-Hunter passively correlates sniffed DNS responses with subsequent
// traffic flows, tagging every flow with the FQDN the client resolved —
// before the flow's first payload byte, and regardless of encryption. The
// library exposes:
//
//   - the real-time pipeline as a concurrent, sharded Engine (packet
//     source → DNS resolver → flow tagger, hashed by client address onto
//     parallel shards),
//   - the off-line analytics (spatial discovery, content discovery,
//     service-tag extraction),
//   - a synthetic ISP workload generator standing in for the paper's
//     proprietary traces, and
//   - the baselines the paper compares against (reverse DNS lookup, TLS
//     certificate inspection).
//
// Quick start:
//
//	trace := dnhunter.GenerateTrace("EU1-FTTH", 0.2, 1)
//	eng := dnhunter.NewEngine(dnhunter.WithShards(-1)) // one shard per CPU
//	res, err := eng.RunTrace(context.Background(), trace)
//	if err != nil { ... }
//	fmt.Println(res.Stats.Resolver)           // hit ratio etc.
//	for i := range min(10, res.DB.Len()) {
//	    f := res.DB.At(i)
//	    fmt.Println(f.Key, f.Label)
//	}
//
// Any shard count yields the same flow set and aggregate statistics (as
// long as the per-shard resolver Clist never overflows; see WithShards);
// one shard reproduces the deterministic single-threaded pipeline
// exactly. Event consumers implement the Sink interface (see WithSink).
package dnhunter

import (
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/orgdb"
	"repro/internal/resolver"
	"repro/internal/synth"
)

// Re-exported types: the facade keeps downstream imports to one package.
type (
	// Stats aggregates pipeline counters.
	Stats = core.Stats
	// TagEvent fires at flow start with the assigned label.
	TagEvent = core.TagEvent
	// DNSEvent describes one sniffed DNS response.
	DNSEvent = core.DNSEvent
	// Policy is the FQDN-based rule engine for online enforcement.
	Policy = core.Policy
	// Rule is one policy rule.
	Rule = core.Rule
	// Action is a policy decision.
	Action = core.Action
	// LabeledFlow is one tagged flow record.
	LabeledFlow = flowdb.LabeledFlow
	// FlowDB is the labeled flows database.
	FlowDB = flowdb.DB
	// FlowKey identifies a flow client → server.
	FlowKey = flows.Key
	// ResolverConfig tunes the DNS cache replica (Clist size, history).
	ResolverConfig = resolver.Config
	// Trace is one synthetic capture with its sidecars.
	Trace = synth.Trace
	// Scenario parameterizes a synthetic capture.
	Scenario = synth.Scenario
	// OrgDB maps server addresses to organizations.
	OrgDB = orgdb.DB
)

// Policy actions.
const (
	ActionAllow        = core.ActionAllow
	ActionPrioritize   = core.ActionPrioritize
	ActionDeprioritize = core.ActionDeprioritize
	ActionRateLimit    = core.ActionRateLimit
	ActionBlock        = core.ActionBlock
)

// NewPolicy builds an ordered policy rule set.
func NewPolicy(rules ...Rule) *Policy { return core.NewPolicy(rules...) }

// GenerateTrace synthesizes one of the paper's named captures ("US-3G",
// "EU2-ADSL", "EU1-ADSL1", "EU1-ADSL2", "EU1-FTTH") at the given scale.
func GenerateTrace(name string, scale float64, seed uint64) *Trace {
	return synth.Generate(synth.NamedScenario(name, scale, seed))
}

// GenerateQuickTrace synthesizes a small trace for demos and tests.
func GenerateQuickTrace(seed uint64) *Trace {
	return synth.Generate(synth.QuickScenario(seed))
}

// Result is the outcome of running the pipeline over a trace.
type Result struct {
	DB       *FlowDB
	Stats    Stats
	DNSTimes []time.Duration
	Trace    *Trace
	// Readers holds per-reader-partition counters (one entry per
	// partition; nil for single-shard runs).
	Readers []ReaderStat
}

// ExtractTags runs the paper's Algorithm 4 on a labeled flow database.
func ExtractTags(db *FlowDB, port uint16, k int) []analytics.TagScore {
	return analytics.ExtractTags(db, port, k)
}

// SpatialDiscovery runs Algorithm 2 for a domain name.
func SpatialDiscovery(db *FlowDB, odb *OrgDB, name string) *analytics.SpatialResult {
	return analytics.SpatialDiscovery(db, odb, name)
}
