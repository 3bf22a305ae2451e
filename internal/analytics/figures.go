package analytics

import (
	"cmp"
	"maps"
	"net/netip"
	"slices"
	"time"

	"repro/internal/flowdb"
	"repro/internal/orgdb"
	"repro/internal/stats"
)

// figures.go extracts the measurement series behind the paper's remaining
// figures: per-bin server pools (Fig. 4), per-CDN FQDN counts (Fig. 5),
// birth processes (Fig. 6), appspot tracking (Figs. 10/11, Table 8), delay
// CDFs (Figs. 12/13) and the DNS response rate (Fig. 14).

// ServerTimeseries computes Fig. 4 for a set of second-level domains: the
// number of distinct server addresses observed serving each SLD per time
// bin.
func ServerTimeseries(db *flowdb.DB, slds []string, bin time.Duration) map[string][]int {
	acc := make(map[string]*stats.SetBinUnion, len(slds))
	for _, s := range slds {
		acc[s] = stats.NewSetBinUnion(bin)
	}
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		if !f.Labeled {
			continue
		}
		if a, ok := acc[f.SLD]; ok {
			a.Add(f.Start, f.Key.ServerIP.String())
		}
	}
	out := make(map[string][]int, len(slds))
	for s, a := range acc {
		out[s] = a.Counts()
	}
	return out
}

// CDNTimeseries computes Fig. 5: distinct FQDNs served per hosting org per
// time bin.
func CDNTimeseries(db *flowdb.DB, odb *orgdb.DB, orgs []string, bin time.Duration) map[string][]int {
	want := make(map[string]*stats.SetBinUnion, len(orgs))
	for _, o := range orgs {
		want[o] = stats.NewSetBinUnion(bin)
	}
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		if !f.Labeled {
			continue
		}
		org, ok := odb.Lookup(f.Key.ServerIP)
		if !ok {
			continue
		}
		if a, ok := want[org]; ok {
			a.Add(f.Start, f.Label)
		}
	}
	out := make(map[string][]int, len(orgs))
	for o, a := range want {
		out[o] = a.Counts()
	}
	return out
}

// BirthSeries is one cumulative-unique-count curve of Fig. 6.
type BirthSeries struct {
	Bin    time.Duration
	FQDN   []int
	SLD    []int
	Server []int
}

// BirthProcess computes Fig. 6 from the labeled flows of a window span
// long: the cumulative number of unique FQDNs, second-level domains, and
// server addresses per bin. Each entity is born in the bin of its earliest
// flow Start. FQDNs must keep growing while the other two saturate.
func BirthProcess(db *flowdb.DB, span, bin time.Duration) *BirthSeries {
	fqdns := map[string]time.Duration{}
	slds := map[string]time.Duration{}
	servers := map[netip.Addr]time.Duration{}
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		if !f.Labeled {
			continue
		}
		earliest(fqdns, f.Label, f.Start)
		earliest(slds, f.SLD, f.Start)
		earliest(servers, f.Key.ServerIP, f.Start)
	}
	n := int(span/bin) + 1
	return &BirthSeries{Bin: bin, FQDN: births(fqdns, bin, n), SLD: births(slds, bin, n), Server: births(servers, bin, n)}
}

// earliest keeps in first[k] the earliest at seen for k.
func earliest[K comparable](first map[K]time.Duration, k K, at time.Duration) {
	if t, ok := first[k]; !ok || at < t {
		first[k] = at
	}
}

// births returns, for each of n bins, how many entities were born in or
// before it; a birth past the last bin counts in the last.
func births[K comparable](born map[K]time.Duration, bin time.Duration, n int) []int {
	out := make([]int, n)
	for _, at := range born {
		out[min(int(at/bin), n-1)]++
	}
	for i := 1; i < n; i++ {
		out[i] += out[i-1]
	}
	return out
}

// GrowthRatio summarizes Fig. 6's claim: FQDN growth in the last third of
// the window divided by growth in the first third, compared per curve.
// FQDNs should retain a substantially higher late-growth ratio than servers.
func (bs *BirthSeries) GrowthRatio(series []int) float64 {
	n := len(series)
	if n < 3 {
		return 0
	}
	third := n / 3
	early := series[third] - series[0]
	late := series[n-1] - series[n-1-third]
	if early <= 0 {
		return 0
	}
	return float64(late) / float64(early)
}

// AppspotReport reproduces Table 8 and Fig. 11 from labeled flows.
type AppspotReport struct {
	// Table 8 rows.
	TrackerServices, GeneralServices int
	TrackerFlows, GeneralFlows       int
	TrackerC2S, TrackerS2C           uint64
	GeneralC2S, GeneralS2C           uint64
	// Timeline[id] lists the active bins of tracker #id (Fig. 11). IDs
	// count from 1 in first-seen order.
	Timeline map[int][]int
}

// AppspotTracking analyses the appspot.com flows of db: BitTorrent
// trackers (a label with a "tracker" service token) versus general apps,
// plus each tracker's activity timeline.
func AppspotTracking(db *flowdb.DB, bin time.Duration) *AppspotReport {
	rep := &AppspotReport{Timeline: make(map[int][]int)}
	type seen struct {
		first time.Duration
		bins  map[int]struct{}
	}
	trackers := map[string]*seen{}
	general := map[string]struct{}{}
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		if !f.Labeled || f.SLD != "appspot.com" {
			continue
		}
		if !slices.Contains(stats.ServiceTokens(f.Label), "tracker") {
			general[f.Label] = struct{}{}
			rep.GeneralFlows++
			rep.GeneralC2S += f.BytesC2S
			rep.GeneralS2C += f.BytesS2C
			continue
		}
		t := trackers[f.Label]
		if t == nil {
			t = &seen{first: f.Start, bins: map[int]struct{}{}}
			trackers[f.Label] = t
		}
		t.first = min(t.first, f.Start)
		t.bins[int(f.Start/bin)] = struct{}{}
		rep.TrackerFlows++
		rep.TrackerC2S += f.BytesC2S
		rep.TrackerS2C += f.BytesS2C
	}
	rep.TrackerServices = len(trackers)
	rep.GeneralServices = len(general)
	order := slices.Collect(maps.Keys(trackers))
	slices.SortFunc(order, func(a, b string) int {
		return cmp.Or(cmp.Compare(trackers[a].first, trackers[b].first), cmp.Compare(a, b))
	})
	for i, name := range order {
		rep.Timeline[i+1] = slices.Sorted(maps.Keys(trackers[name].bins))
	}
	return rep
}

// DelayCDFs computes Figs. 12 and 13 from a labeled flow database: the
// first-flow delay (DNS response → first flow using it) and the any-flow
// delay (DNS response → every flow using it).
func DelayCDFs(db *flowdb.DB) (firstFlow, anyFlow *stats.CDF) {
	firstFlow = &stats.CDF{}
	anyFlow = &stats.CDF{}
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		if !f.Labeled || f.DNSDelay < 0 {
			continue
		}
		sec := f.DNSDelay.Seconds()
		anyFlow.Add(sec)
		if f.FirstAfterDNS {
			firstFlow.Add(sec)
		}
	}
	return firstFlow, anyFlow
}

// DNSRate computes Fig. 14: DNS responses per time bin, from the response
// timestamps collected by the pipeline's OnDNSResponse hook.
func DNSRate(times []time.Duration, bin time.Duration) []float64 {
	b := stats.NewBinner(bin)
	for _, t := range times {
		b.Incr(t)
	}
	return b.Values()
}
