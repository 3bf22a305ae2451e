package stream

import (
	"net/netip"
	"sort"

	"repro/internal/analytics"
	"repro/internal/flowdb"
	"repro/internal/swiss"
)

// Default budgets for StandardQueries. Chosen so the full standard set
// stays under ~2 MiB of state regardless of trace size.
const (
	// DefaultTopK is the rank depth the standard queries snapshot.
	DefaultTopK = 10
	// DefaultCounters is the space-saving budget: error ≤ N/1024 per key
	// and any key above 0.1% of traffic is guaranteed tracked.
	DefaultCounters = 1024
	// DefaultMaxSLDs bounds how many SLDs hold a live server-footprint
	// estimator.
	DefaultMaxSLDs = 1024
)

// MemoOrgLookup wraps a lookup with a one-entry memo of the last
// resolution. Two standard queries (top_orgs, provider_usage) resolve the
// same flow back to back; sharing one memoized lookup between them halves
// the per-flow org-database walks, and consecutive flows to the same
// server skip the walk entirely. Single-goroutine like the queries it
// serves: the Pipeline's lock covers it. A nil lookup stays nil.
func MemoOrgLookup(lookup analytics.OrgLookup) analytics.OrgLookup {
	if lookup == nil {
		return nil
	}
	var (
		valid    bool
		vantage  string
		addr     netip.Addr
		org      string
		resolved bool
	)
	return func(v string, a netip.Addr) (string, bool) {
		if valid && a == addr && v == vantage {
			return org, resolved
		}
		org, resolved = lookup(v, a)
		vantage, addr, valid = v, a, true
		return org, resolved
	}
}

// topKKey selects which flow field a topK query counts. A switch rather
// than a key closure: passing &f into a captured func makes the whole
// LabeledFlow escape, one heap copy per query per flow on the hot path.
type topKKey uint8

const (
	keyLabel topKKey = iota
	keySLD
	keyOrg
)

// topK is the sketched counterpart of the exact top-k queries: same
// names, same TopKResult snapshot shape, space-saving state instead of a
// full count map.
type topK struct {
	name   string
	k      int
	key    topKKey
	lookup analytics.OrgLookup // keyOrg only
	ss     *SpaceSaving
}

// NewTopDomains approximates flows-per-FQDN with a space-saving sketch of
// the given counter budget. Stream counterpart of NewExactTopDomains.
func NewTopDomains(k, counters int) analytics.Query {
	return &topK{name: "top_domains", k: k, key: keyLabel, ss: NewSpaceSaving(counters)}
}

// NewTopSLDs approximates flows-per-SLD. Stream counterpart of
// NewExactTopSLDs.
func NewTopSLDs(k, counters int) analytics.Query {
	return &topK{name: "top_slds", k: k, key: keySLD, ss: NewSpaceSaving(counters)}
}

// NewTopOrgs approximates labeled flows per hosting organization. Stream
// counterpart of NewExactTopOrgs.
func NewTopOrgs(lookup analytics.OrgLookup, k, counters int) analytics.Query {
	return &topK{name: "top_orgs", k: k, key: keyOrg, lookup: lookup, ss: NewSpaceSaving(counters)}
}

func (q *topK) Name() string { return q.name }

func (q *topK) Observe(f *flowdb.LabeledFlow) {
	if !f.Labeled {
		return
	}
	var key string
	switch q.key {
	case keyLabel:
		key = f.Label
	case keySLD:
		key = f.SLD
	default:
		key = analytics.OrgOrUnknown(q.lookup, f.Vantage, f.Key.ServerIP)
	}
	if key != "" {
		q.ss.Observe(key)
	}
}

func (q *topK) Snapshot() analytics.Result {
	return analytics.TopKResult{
		K:        q.k,
		Observed: q.ss.Observed(),
		Capacity: q.ss.Capacity(),
		Entries:  q.ss.Top(q.k),
	}
}

// sldFootprint estimates distinct server addresses per SLD with one HLL
// per tracked SLD plus one for the union. Stream counterpart of
// NewExactSLDFootprint.
type sldFootprint struct {
	k       int
	maxSLDs int
	p       uint8
	perSLD  map[string]*HLL
	all     *HLL
	dropped uint64
}

// NewSLDFootprint builds the sketched per-SLD server-footprint query:
// at most maxSLDs tracked keys, 2^p registers each. Flows whose SLD
// arrives after the budget is full still count toward the union estimate
// but are reported in DroppedFlows.
func NewSLDFootprint(k, maxSLDs int, p uint8) analytics.Query {
	if maxSLDs < 1 {
		maxSLDs = 1
	}
	return &sldFootprint{k: k, maxSLDs: maxSLDs, p: p,
		perSLD: make(map[string]*HLL, maxSLDs), all: NewHLL(p)}
}

func (q *sldFootprint) Name() string { return "sld_server_footprint" }

func (q *sldFootprint) Observe(f *flowdb.LabeledFlow) {
	if !f.Labeled {
		return
	}
	// One address hash serves both the union and the per-SLD register.
	x := swiss.HashAddr(hllSeed, f.Key.ServerIP)
	q.all.AddHash(x)
	h, ok := q.perSLD[f.SLD]
	if !ok {
		if len(q.perSLD) >= q.maxSLDs {
			q.dropped++
			return
		}
		h = newTrackedHLL(q.p)
		q.perSLD[f.SLD] = h
	}
	h.AddHash(x)
}

// newTrackedHLL is the lazy per-key estimator allocation: it happens at
// most maxSLDs times over a query's whole lifetime, not per flow.
func newTrackedHLL(p uint8) *HLL {
	return NewHLL(p)
}

func (q *sldFootprint) Snapshot() analytics.Result {
	entries := make([]analytics.CardinalityEntry, 0, len(q.perSLD))
	for sld, h := range q.perSLD {
		entries = append(entries, analytics.CardinalityEntry{Key: sld, Count: h.Estimate()})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
	tracked := len(entries)
	if q.k > 0 && len(entries) > q.k {
		entries = entries[:q.k]
	}
	return analytics.CardinalityResult{
		K:            q.k,
		StdError:     q.all.StdError(),
		TrackedKeys:  tracked,
		DroppedFlows: q.dropped,
		Total:        q.all.Estimate(),
		Entries:      entries,
	}
}

// providerUsage is the streaming provider footprint: flow counters per
// (vantage, org) cell plus an HLL per cell for distinct servers. The org
// and vantage universes are small (org databases list tens of providers),
// so plain maps are the bounded state here; only the server sets need
// sketching.
type providerUsage struct {
	lookup  analytics.OrgLookup
	k       int
	p       uint8
	labeled map[string]uint64            // vantage → labeled flows
	flows   map[string]map[string]uint64 // vantage → org → flows
	servers map[string]map[string]*HLL   // vantage → org → distinct servers

	// Current-vantage cell cache; see Observe. Maps are mutated in
	// place, so the cached references stay valid.
	curValid bool
	curV     string
	curVF    map[string]uint64
	curVS    map[string]*HLL
}

// NewProviderUsage builds the streaming Table 5 / Fig. 9 aggregate:
// per-vantage hosting-org shares with HLL-estimated server counts
// (2^p registers per cell). Snapshot returns ProviderUsageResult with
// vantages sorted by name, unlike the exact query's seeded input order.
func NewProviderUsage(lookup analytics.OrgLookup, k int, p uint8) analytics.Query {
	return &providerUsage{lookup: lookup, k: k, p: p,
		labeled: map[string]uint64{},
		flows:   map[string]map[string]uint64{},
		servers: map[string]map[string]*HLL{}}
}

func (q *providerUsage) Name() string { return "provider_usage" }

func (q *providerUsage) Observe(f *flowdb.LabeledFlow) {
	if !f.Labeled {
		return
	}
	v := f.Vantage
	// Flow streams rarely switch vantage mid-stream; cache the current
	// vantage's cell maps to skip two map lookups per flow.
	if !q.curValid || v != q.curV {
		vf, ok := q.flows[v]
		if !ok {
			vf = newOrgCounters()
			q.flows[v] = vf
			q.servers[v] = newOrgEstimators()
		}
		q.curV, q.curVF, q.curVS, q.curValid = v, vf, q.servers[v], true
	}
	q.labeled[v]++
	org := analytics.OrgOrUnknown(q.lookup, v, f.Key.ServerIP)
	q.curVF[org]++
	h, ok := q.curVS[org]
	if !ok {
		h = newTrackedHLL(q.p)
		q.curVS[org] = h
	}
	h.AddAddr(f.Key.ServerIP)
}

// newOrgCounters / newOrgEstimators are the lazy per-vantage cell maps:
// allocated once per vantage name, not per flow.
func newOrgCounters() map[string]uint64 {
	return make(map[string]uint64)
}

func newOrgEstimators() map[string]*HLL {
	return make(map[string]*HLL)
}

func (q *providerUsage) Snapshot() analytics.Result {
	res := analytics.ProviderUsageResult{
		PerVantage:   make(map[string][]analytics.ProviderShare),
		LabeledFlows: make(map[string]uint64, len(q.labeled)),
	}
	for v := range q.labeled {
		res.Vantages = append(res.Vantages, v)
	}
	sort.Strings(res.Vantages)
	totals := make(map[string]uint64)
	for _, vf := range q.flows {
		for org, n := range vf {
			totals[org] += n
		}
	}
	for org := range totals {
		res.Orgs = append(res.Orgs, org)
	}
	sort.Slice(res.Orgs, func(i, j int) bool {
		if totals[res.Orgs[i]] != totals[res.Orgs[j]] {
			return totals[res.Orgs[i]] > totals[res.Orgs[j]]
		}
		return res.Orgs[i] < res.Orgs[j]
	})
	if q.k > 0 && len(res.Orgs) > q.k {
		res.Orgs = res.Orgs[:q.k]
	}
	for _, v := range res.Vantages {
		labeled := q.labeled[v]
		res.LabeledFlows[v] = labeled
		shares := make([]analytics.ProviderShare, 0, len(res.Orgs))
		for _, org := range res.Orgs {
			n, ok := q.flows[v][org]
			if !ok {
				continue
			}
			ps := analytics.ProviderShare{Org: org, Flows: n}
			if labeled > 0 {
				ps.Share = float64(n) / float64(labeled)
			}
			if h := q.servers[v][org]; h != nil {
				ps.Servers = h.Estimate()
			}
			shares = append(shares, ps)
		}
		sort.Slice(shares, func(i, j int) bool {
			if shares[i].Flows != shares[j].Flows {
				return shares[i].Flows > shares[j].Flows
			}
			return shares[i].Org < shares[j].Org
		})
		res.PerVantage[v] = shares
	}
	return res
}

// StandardQueries returns the default streaming query set — top domains,
// SLDs, and orgs, the per-SLD server footprint, provider usage, and
// tagging coverage — with the package default budgets. Coverage is the
// exact query: its state is one counter pair per L7 protocol, already
// bounded. This is what
// `dnhunter serve -analytics` registers; pass a nil lookup when no org
// database is loaded (org-keyed queries then report "unknown").
func StandardQueries(lookup analytics.OrgLookup) []analytics.Query {
	// top_orgs and provider_usage share one memoized lookup: the second
	// resolution of each flow is a memo hit, not an org-database walk.
	lookup = MemoOrgLookup(lookup)
	return []analytics.Query{
		NewTopDomains(DefaultTopK, DefaultCounters),
		NewTopSLDs(DefaultTopK, DefaultCounters),
		NewTopOrgs(lookup, DefaultTopK, DefaultCounters),
		NewSLDFootprint(DefaultTopK, DefaultMaxSLDs, DefaultHLLPrecision),
		NewProviderUsage(lookup, DefaultTopK, DefaultHLLPrecision),
		analytics.NewExactCoverage(0),
	}
}
