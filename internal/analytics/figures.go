package analytics

import (
	"net/netip"
	"sort"
	"time"

	"repro/internal/flowdb"
	"repro/internal/orgdb"
	"repro/internal/stats"
	"repro/internal/synth"
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

// BirthProcess computes Fig. 6 from an event-mode trace: the cumulative
// number of unique FQDNs, second-level domains, and server addresses over
// time. FQDNs must keep growing while the other two saturate.
func BirthProcess(tr *synth.EventTrace, bin time.Duration) *BirthSeries {
	nBins := int(time.Duration(tr.Scenario.Days)*24*time.Hour/bin) + 1
	bs := &BirthSeries{Bin: bin, FQDN: make([]int, nBins), SLD: make([]int, nBins), Server: make([]int, nBins)}
	seenF := map[string]struct{}{}
	seenS := map[string]struct{}{}
	seenIP := map[netip.Addr]struct{}{}
	idx := 0
	commit := func(upTo int) {
		for ; idx <= upTo && idx < nBins; idx++ {
			bs.FQDN[idx] = len(seenF)
			bs.SLD[idx] = len(seenS)
			bs.Server[idx] = len(seenIP)
		}
	}
	for _, ev := range tr.DNS {
		b := int(ev.At / bin)
		if b >= idx {
			commit(b - 1)
		}
		seenF[ev.FQDN] = struct{}{}
		seenS[stats.SLD(ev.FQDN)] = struct{}{}
		for _, a := range ev.Addrs {
			seenIP[a] = struct{}{}
		}
	}
	commit(nBins - 1)
	return bs
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

// AppspotReport reproduces Table 8 and Fig. 11 from an event-mode trace.
type AppspotReport struct {
	// Table 8 rows.
	TrackerServices, GeneralServices int
	TrackerFlows, GeneralFlows       int
	TrackerC2S, TrackerS2C           uint64
	GeneralC2S, GeneralS2C           uint64
	// Timeline[id] lists the active 4-hour bins of tracker #id (Fig. 11).
	Timeline map[int][]int
}

// AppspotTracking analyses appspot.com traffic in an event trace: trackers
// versus general apps, plus each tracker's activity timeline.
func AppspotTracking(tr *synth.EventTrace, bin time.Duration) *AppspotReport {
	rep := &AppspotReport{Timeline: make(map[int][]int)}
	trackerSvcs := map[string]struct{}{}
	generalSvcs := map[string]struct{}{}
	seenBin := map[int]map[int]struct{}{}
	for i := range tr.Flows {
		f := &tr.Flows[i]
		if stats.SLD(f.Label) != "appspot.com" {
			continue
		}
		if id, isTracker := tr.TrackerIDs[f.Label]; isTracker {
			trackerSvcs[f.Label] = struct{}{}
			rep.TrackerFlows++
			rep.TrackerC2S += f.BytesC2S
			rep.TrackerS2C += f.BytesS2C
			b := int(f.Start / bin)
			if seenBin[id] == nil {
				seenBin[id] = map[int]struct{}{}
			}
			seenBin[id][b] = struct{}{}
		} else {
			generalSvcs[f.Label] = struct{}{}
			rep.GeneralFlows++
			rep.GeneralC2S += f.BytesC2S
			rep.GeneralS2C += f.BytesS2C
		}
	}
	rep.TrackerServices = len(trackerSvcs)
	rep.GeneralServices = len(generalSvcs)
	for id, bins := range seenBin {
		var list []int
		for b := range bins {
			list = append(list, b)
		}
		sort.Ints(list)
		rep.Timeline[id] = list
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
