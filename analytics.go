package dnhunter

// The analytics plane at the public API surface. A Pipeline is a named
// registry of incremental queries fed either from a materialized FlowDB
// (batch) or window-by-window under Engine.Serve via
// ServeConfig.ObserveWindow (streaming). Two query families exist:
// exact references (unbounded state, paper-fidelity results) and
// sketch-based streaming versions (bounded state, documented error
// bounds). See docs/ARCHITECTURE.md, "Analytics plane".
//
//	pipe := dnhunter.NewAnalyticsPipeline(dnhunter.StreamingQueries(orgs)...)
//	scfg.ObserveWindow = pipe.ObserveWindow
//	... engine serves ...
//	for _, qr := range pipe.Snapshot() { ... }

import (
	"repro/internal/analytics"
	"repro/internal/analytics/stream"
)

type (
	// AnalyticsPipeline is the query registry feeding a set of
	// AnalyticsQuery values from one flow stream.
	AnalyticsPipeline = analytics.Pipeline
	// AnalyticsQuery is one incremental analysis (observe / snapshot).
	AnalyticsQuery = analytics.Query
	// AnalyticsResult pairs a query name with its snapshot.
	AnalyticsResult = analytics.QueryResult
	// OrgLookup resolves a server address to its hosting organization,
	// per vantage.
	OrgLookup = analytics.OrgLookup
	// ContentShare is one row of a content-discovery snapshot (see
	// NewTopContentQuery).
	ContentShare = analytics.ContentShare
)

// NewAnalyticsPipeline builds a pipeline over the given queries; it
// panics on duplicate query names.
func NewAnalyticsPipeline(queries ...AnalyticsQuery) *AnalyticsPipeline {
	return analytics.NewPipeline(queries...)
}

// StreamingQueries returns the standard sketch-based query set — top
// domains/SLDs/orgs, per-SLD server footprints, provider usage, tagging
// coverage — sized for bounded state under run-forever serving. odb may
// be nil when no organization database is loaded.
func StreamingQueries(odb *OrgDB) []AnalyticsQuery {
	return stream.StandardQueries(analytics.OrgLookupDB(odb))
}

// NewTopContentQuery builds the Algorithm 3 content-discovery query (the
// Table 5 view): the top-k second-level domains served from org's
// addresses. Register it in a pipeline and feed with ObserveDB; the
// snapshot is a []ContentShare.
func NewTopContentQuery(org string, odb *OrgDB, k int) AnalyticsQuery {
	return analytics.NewExactTopContent(org, analytics.OrgLookupDB(odb), analytics.BySLD, k)
}
