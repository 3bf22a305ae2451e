package analytics

// Exact reference implementations of the Query interface. These keep the
// full key sets in memory — paper-fidelity results, unbounded state —
// and exist for batch runs and as the ground truth the stream
// subpackage's sketches are differential-tested against. Run one by
// registering it in a Pipeline and feeding that with ObserveDB or
// ObserveVantages.

import (
	"net/netip"
	"sort"
	"time"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/stats"
)

// exactTopK counts keys exactly in a map; the reference for the stream
// subpackage's space-saving sketch.
type exactTopK struct {
	name   string
	k      int
	key    func(f *flowdb.LabeledFlow) string // "" skips the flow
	counts map[string]uint64
	total  uint64
}

// NewExactTopDomains counts flows per FQDN label exactly; Snapshot
// returns TopKResult. Reference for stream.NewTopDomains.
func NewExactTopDomains(k int) Query {
	return &exactTopK{name: "top_domains", k: k, counts: map[string]uint64{},
		key: func(f *flowdb.LabeledFlow) string {
			if !f.Labeled {
				return ""
			}
			return f.Label
		}}
}

// NewExactTopSLDs counts flows per second-level domain exactly; Snapshot
// returns TopKResult. Reference for stream.NewTopSLDs.
func NewExactTopSLDs(k int) Query {
	return &exactTopK{name: "top_slds", k: k, counts: map[string]uint64{},
		key: func(f *flowdb.LabeledFlow) string {
			if !f.Labeled {
				return ""
			}
			return f.SLD
		}}
}

// NewExactTopOrgs counts labeled flows per hosting organization exactly;
// Snapshot returns TopKResult. Reference for stream.NewTopOrgs.
func NewExactTopOrgs(lookup OrgLookup, k int) Query {
	return &exactTopK{name: "top_orgs", k: k, counts: map[string]uint64{},
		key: func(f *flowdb.LabeledFlow) string {
			if !f.Labeled {
				return ""
			}
			return OrgOrUnknown(lookup, f.Vantage, f.Key.ServerIP)
		}}
}

func (q *exactTopK) Name() string { return q.name }

func (q *exactTopK) Observe(f *flowdb.LabeledFlow) {
	if key := q.key(f); key != "" {
		q.counts[key]++
		q.total++
	}
}

func (q *exactTopK) Snapshot() Result {
	entries := make([]TopEntry, 0, len(q.counts))
	for key, n := range q.counts {
		entries = append(entries, TopEntry{Key: key, Count: n})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
	if q.k > 0 && len(entries) > q.k {
		entries = entries[:q.k]
	}
	return TopKResult{K: q.k, Observed: q.total, Entries: entries}
}

// exactCardinality tracks exact distinct-server sets per SLD; the
// reference for stream.NewSLDFootprint.
type exactCardinality struct {
	k      int
	perSLD map[string]map[netip.Addr]struct{}
	all    map[netip.Addr]struct{}
}

// NewExactSLDFootprint tracks the exact distinct server addresses
// serving each SLD; Snapshot returns CardinalityResult. Reference for
// stream.NewSLDFootprint.
func NewExactSLDFootprint(k int) Query {
	return &exactCardinality{k: k,
		perSLD: map[string]map[netip.Addr]struct{}{},
		all:    map[netip.Addr]struct{}{}}
}

func (q *exactCardinality) Name() string { return "sld_server_footprint" }

func (q *exactCardinality) Observe(f *flowdb.LabeledFlow) {
	if !f.Labeled {
		return
	}
	addToSet(q.perSLD, f.SLD, f.Key.ServerIP)
	q.all[f.Key.ServerIP] = struct{}{}
}

func (q *exactCardinality) Snapshot() Result {
	entries := make([]CardinalityEntry, 0, len(q.perSLD))
	for sld, set := range q.perSLD {
		entries = append(entries, CardinalityEntry{Key: sld, Count: float64(len(set))})
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
	return CardinalityResult{K: q.k, TrackedKeys: tracked, Total: float64(len(q.all)), Entries: entries}
}

// exactProviderUsage is the exact cross-vantage provider footprint;
// Snapshot returns *ProviderFootprint.
type exactProviderUsage struct {
	lookup OrgLookup
	k      int
	// seeded vantages render first, in constructor order, even with zero
	// flows (so the result follows the caller's vantage order); vantages
	// first seen in the stream follow, sorted, so merge order cannot
	// change the snapshot.
	seeded  []string
	seen    map[string]bool
	labeled map[string]int
	flows   map[string]map[string]int
	servers map[string]map[string]map[netip.Addr]struct{}
}

// NewExactProviderUsage builds the exact cross-vantage provider
// footprint (Snapshot returns *ProviderFootprint), keeping the k hosting
// orgs with the most total flows (k <= 0 keeps all). Seeded vantage
// names appear in the result in the given order even when no flows carry
// them; unseeded vantages found in the stream are appended sorted.
func NewExactProviderUsage(lookup OrgLookup, k int, vantages ...string) Query {
	q := &exactProviderUsage{
		lookup:  lookup,
		k:       k,
		seen:    map[string]bool{},
		labeled: map[string]int{},
		flows:   map[string]map[string]int{},
		servers: map[string]map[string]map[netip.Addr]struct{}{},
	}
	for _, v := range vantages {
		if !q.seen[v] {
			q.seen[v] = true
			q.seeded = append(q.seeded, v)
			q.labeled[v] = 0
		}
	}
	return q
}

func (q *exactProviderUsage) Name() string { return "provider_usage" }

func (q *exactProviderUsage) Observe(f *flowdb.LabeledFlow) {
	if !f.Labeled {
		return
	}
	v := f.Vantage
	q.seen[v] = true
	q.labeled[v]++
	org := OrgOrUnknown(q.lookup, v, f.Key.ServerIP)
	vf, ok := q.flows[v]
	if !ok {
		vf = map[string]int{}
		q.flows[v] = vf
	}
	vf[org]++
	vs, ok := q.servers[v]
	if !ok {
		vs = map[string]map[netip.Addr]struct{}{}
		q.servers[v] = vs
	}
	addToSet(vs, org, f.Key.ServerIP)
}

// vantageOrder lists the seeded vantages in constructor order, then every
// other vantage seen sorted by name: the column order of the per-vantage
// queries.
func vantageOrder(seeded []string, seen map[string]bool) []string {
	out := append([]string(nil), seeded...)
	inSeed := map[string]bool{}
	for _, v := range seeded {
		inSeed[v] = true
	}
	var rest []string
	for v := range seen {
		if !inSeed[v] {
			rest = append(rest, v)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func (q *exactProviderUsage) Snapshot() Result {
	pf := &ProviderFootprint{
		Share:        make(map[string]map[string]float64),
		Servers:      make(map[string]map[string]int),
		LabeledFlows: make(map[string]int),
	}
	totals := make(map[string]int)
	for _, v := range vantageOrder(q.seeded, q.seen) {
		pf.Vantages = append(pf.Vantages, v)
		labeled := q.labeled[v]
		pf.LabeledFlows[v] = labeled
		share := make(map[string]float64, len(q.flows[v]))
		srv := make(map[string]int, len(q.servers[v]))
		for org, n := range q.flows[v] {
			totals[org] += n
			if labeled > 0 {
				share[org] = float64(n) / float64(labeled)
			}
			srv[org] = len(q.servers[v][org])
		}
		pf.Share[v] = share
		pf.Servers[v] = srv
	}
	for org := range totals {
		pf.Orgs = append(pf.Orgs, org)
	}
	sort.Slice(pf.Orgs, func(i, j int) bool {
		if totals[pf.Orgs[i]] != totals[pf.Orgs[j]] {
			return totals[pf.Orgs[i]] > totals[pf.Orgs[j]]
		}
		return pf.Orgs[i] < pf.Orgs[j]
	})
	if q.k > 0 && len(pf.Orgs) > q.k {
		pf.Orgs = pf.Orgs[:q.k]
	}
	return pf
}

// exactCrossVantage runs SpatialDiscovery for one SLD at every vantage and
// computes the pairwise infrastructure overlaps; Snapshot returns
// *CrossVantage.
type exactCrossVantage struct {
	sld    string
	lookup OrgLookup
	seeded []string
	seen   map[string]bool
	per    map[string]*spatialAgg
}

// NewExactCrossVantage builds the exact cross-vantage CDN-overlap query
// for one content organization (Snapshot returns *CrossVantage). The
// query name embeds the SLD, so one pipeline can track several.
func NewExactCrossVantage(name string, lookup OrgLookup, vantages ...string) Query {
	q := &exactCrossVantage{sld: stats.SLD(name), lookup: lookup, seen: map[string]bool{}, per: map[string]*spatialAgg{}}
	for _, v := range vantages {
		if !q.seen[v] {
			q.seen[v] = true
			q.seeded = append(q.seeded, v)
		}
	}
	return q
}

func (q *exactCrossVantage) Name() string { return "cross_vantage:" + q.sld }

func (q *exactCrossVantage) Observe(f *flowdb.LabeledFlow) {
	if !f.Labeled || f.SLD != q.sld {
		return
	}
	q.seen[f.Vantage] = true
	agg, ok := q.per[f.Vantage]
	if !ok {
		agg = newSpatialAgg()
		q.per[f.Vantage] = agg
	}
	agg.add(OrgOrUnknown(q.lookup, f.Vantage, f.Key.ServerIP), f.Key.ServerIP, f.Label)
}

func (q *exactCrossVantage) Snapshot() Result {
	order := vantageOrder(q.seeded, q.seen)
	cv := &CrossVantage{SLD: q.sld, Per: make(map[string]*SpatialResult)}
	hostSets := make([]map[string]struct{}, len(order))
	serverSets := make([]map[netip.Addr]struct{}, len(order))
	for i, v := range order {
		cv.Vantages = append(cv.Vantages, v)
		agg := q.per[v]
		if agg == nil {
			agg = &spatialAgg{}
		}
		res := agg.result(q.sld)
		cv.Per[v] = res
		hosts := make(map[string]struct{}, len(res.Hosts))
		for _, hs := range res.Hosts {
			hosts[hs.Org] = struct{}{}
		}
		hostSets[i] = hosts
		serverSets[i] = agg.servers
	}
	cv.HostOverlap = make([][]float64, len(order))
	cv.ServerOverlap = make([][]float64, len(order))
	for i := range order {
		cv.HostOverlap[i] = make([]float64, len(order))
		cv.ServerOverlap[i] = make([]float64, len(order))
		for j := range order {
			cv.HostOverlap[i][j] = jaccard(hostSets[i], hostSets[j])
			cv.ServerOverlap[i][j] = jaccard(serverSets[i], serverSets[j])
		}
	}
	return cv
}

// addToSet adds v to the set m holds under k, making the set on first use.
func addToSet[K, V comparable](m map[K]map[V]struct{}, k K, v V) {
	set, ok := m[k]
	if !ok {
		set = map[V]struct{}{}
		m[k] = set
	}
	set[v] = struct{}{}
}

// exactTopContent is Algorithm 3 restricted to one hosting org's
// addresses; Snapshot returns []ContentShare.
type exactTopContent struct {
	org    string
	lookup OrgLookup
	g      Granularity
	k      int
	contentTally
}

// NewExactTopContent builds the Table 5 content-discovery query: the
// top-k names (per the granularity) among labeled flows served from the
// given hosting organization's addresses. Snapshot returns
// []ContentShare.
func NewExactTopContent(org string, lookup OrgLookup, g Granularity, k int) Query {
	return &exactTopContent{org: org, lookup: lookup, g: g, k: k, contentTally: newContentTally()}
}

func (q *exactTopContent) Name() string { return "top_content:" + q.org }

func (q *exactTopContent) Observe(f *flowdb.LabeledFlow) {
	if !f.Labeled || q.lookup == nil {
		return
	}
	org, ok := q.lookup(f.Vantage, f.Key.ServerIP)
	if !ok || org != q.org {
		return
	}
	name := f.Label
	if q.g == BySLD {
		name = f.SLD
	}
	q.add(name, f.Key.ClientIP)
}

func (q *exactTopContent) Snapshot() Result { return q.rank(q.k) }

// exactCoverage is the streaming form of flowdb.DB.Coverage; Snapshot
// returns CoverageResult.
type exactCoverage struct {
	warmup         time.Duration
	total, labeled [int(flows.L7DNS) + 1]uint64
}

// NewExactCoverage counts per-protocol tagging coverage for flows
// starting at or after warmup (Table 2's measurement). Snapshot returns
// CoverageResult; equivalent to flowdb.DB.Coverage on the same flows.
func NewExactCoverage(warmup time.Duration) Query {
	return &exactCoverage{warmup: warmup}
}

func (q *exactCoverage) Name() string { return "coverage" }

func (q *exactCoverage) Observe(f *flowdb.LabeledFlow) {
	if f.Start < q.warmup || int(f.L7) >= len(q.total) {
		return
	}
	q.total[f.L7]++
	if f.Labeled {
		q.labeled[f.L7]++
	}
}

func (q *exactCoverage) Snapshot() Result {
	res := CoverageResult{WarmupSeconds: q.warmup.Seconds()}
	for i := range q.total {
		if q.total[i] == 0 {
			continue
		}
		pc := ProtoCoverage{Proto: flows.L7Proto(i).String(), Total: q.total[i], Labeled: q.labeled[i]}
		pc.Ratio = float64(pc.Labeled) / float64(pc.Total)
		res.Protocols = append(res.Protocols, pc)
	}
	return res
}

// ObserveVantages feeds every vantage's database through the pipeline,
// stamping each flow with its vantage name so per-vantage queries
// partition correctly even when the databases were built without stamps
// (as single-source Engine runs are). One pass feeds every registered
// query.
func ObserveVantages(p *Pipeline, vantages []VantageData) {
	var f flowdb.LabeledFlow
	for _, v := range vantages {
		for i := range v.DB.Len() {
			v.DB.Load(i, &f)
			f.Vantage = v.Name
			p.Observe(&f)
		}
	}
}

// VantageNames extracts the names of a vantage set, in order — the seed
// list for NewExactProviderUsage / NewExactCrossVantage.
func VantageNames(vantages []VantageData) []string {
	out := make([]string, len(vantages))
	for i, v := range vantages {
		out[i] = v.Name
	}
	return out
}
