package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/stats"
	"repro/internal/synth"
)

func newRNG(seed uint64) *stats.RNG { return stats.NewRNG(seed) }

// Figure3 reproduces the fan-out CDFs: serverIPs per FQDN and FQDNs per
// serverIP (EU2-ADSL).
func (s *Suite) Figure3() Report {
	db := s.Run(synth.NameEU2ADSL).DB
	ips, fqdns := analytics.FanoutCDFs(db)
	fqdnSingle, ipSingle := analytics.SingletonShares(db)
	var b strings.Builder
	b.WriteString("Figure 3: FQDN <-> serverIP fan-out (EU2-ADSL)\n")
	fmt.Fprintf(&b, "  FQDNs served by exactly one IP: %.0f%% (paper: 82%%)\n", 100*fqdnSingle)
	fmt.Fprintf(&b, "  IPs serving exactly one FQDN:  %.0f%% (paper: 73%%)\n", 100*ipSingle)
	b.WriteString("  CDF(#IP per FQDN):\n")
	for _, x := range []float64{1, 2, 10, 100} {
		fmt.Fprintf(&b, "    <=%4.0f: %.3f\n", x, ips.At(x))
	}
	b.WriteString("  CDF(#FQDN per IP):\n")
	for _, x := range []float64{1, 2, 10, 100} {
		fmt.Fprintf(&b, "    <=%4.0f: %.3f\n", x, fqdns.At(x))
	}
	return Report{Text: b.String(), Metrics: []Metric{
		{"%fqdn-1ip", 100 * fqdnSingle},
		{"%ip-1fqdn", 100 * ipSingle},
	}}
}

// Figure4SLDs are the second-level domains plotted in Fig. 4.
var Figure4SLDs = []string{"twitter.com", "youtube.com", "fbcdn.net", "facebook.com", "blogspot.com"}

// figure4Data counts distinct servers per Figure4SLDs entry in 10-min
// bins (EU1-ADSL2).
func (s *Suite) figure4Data() map[string][]int {
	return analytics.ServerTimeseries(s.Run(synth.NameEU1ADSL2).DB, Figure4SLDs, 10*time.Minute)
}

// Figure4 reproduces the per-SLD server pool time series (EU1-ADSL2, 10-min
// bins).
func (s *Suite) Figure4() Report {
	series := s.figure4Data()
	var b strings.Builder
	b.WriteString("Figure 4: distinct serverIPs per 2nd-level domain, 10-min bins (EU1-ADSL2)\n")
	for _, sld := range Figure4SLDs {
		vals := toFloats(series[sld])
		fmt.Fprintf(&b, "  %-14s max=%4.0f  %s\n", sld, maxF(vals), stats.Sparkline(vals))
	}
	return Report{Text: b.String()}
}

// Figure5Orgs are the hosting orgs plotted in Fig. 5.
var Figure5Orgs = []string{"akamai", "amazon", "google", "level 3", "leaseweb", "cotendo", "edgecast", "microsoft"}

// figure5Data counts distinct FQDNs per Figure5Orgs entry in 10-min bins
// (EU1-ADSL2).
func (s *Suite) figure5Data() map[string][]int {
	run := s.Run(synth.NameEU1ADSL2)
	return analytics.CDNTimeseries(run.DB, run.Trace.OrgDB, Figure5Orgs, 10*time.Minute)
}

// Figure5 reproduces the per-CDN active FQDN time series.
func (s *Suite) Figure5() Report {
	series := s.figure5Data()
	var b strings.Builder
	b.WriteString("Figure 5: distinct FQDNs served per CDN, 10-min bins (EU1-ADSL2)\n")
	for _, org := range Figure5Orgs {
		vals := toFloats(series[org])
		fmt.Fprintf(&b, "  %-10s max=%4.0f  %s\n", org, maxF(vals), stats.Sparkline(vals))
	}
	return Report{Text: b.String()}
}

// Figure6 reproduces the unique FQDN / SLD / serverIP birth processes over
// the live window.
func (s *Suite) Figure6() Report {
	bs := s.birthSeries()
	var b strings.Builder
	n := len(bs.FQDN)
	b.WriteString("Figure 6: unique-entity birth processes (live window)\n")
	fmt.Fprintf(&b, "  final: FQDN=%d  SLD=%d  serverIP=%d\n", bs.FQDN[n-1], bs.SLD[n-1], bs.Server[n-1])
	fmt.Fprintf(&b, "  late/early growth ratio: FQDN=%.2f  SLD=%.2f  serverIP=%.2f\n",
		bs.GrowthRatio(bs.FQDN), bs.GrowthRatio(bs.SLD), bs.GrowthRatio(bs.Server))
	fmt.Fprintf(&b, "  FQDN   %s\n", stats.Sparkline(toFloats(bs.FQDN)))
	fmt.Fprintf(&b, "  SLD    %s\n", stats.Sparkline(toFloats(bs.SLD)))
	fmt.Fprintf(&b, "  server %s\n", stats.Sparkline(toFloats(bs.Server)))
	return Report{Text: b.String(), Metrics: []Metric{
		{"fqdn-late-growth", bs.GrowthRatio(bs.FQDN)},
		{"ip-late-growth", bs.GrowthRatio(bs.Server)},
	}}
}

// birthSeries counts unique FQDNs, SLDs and servers over the live window.
func (s *Suite) birthSeries() *analytics.BirthSeries {
	live := s.Live()
	return analytics.BirthProcess(live.DB, live.Trace.Scenario.Duration, liveBin)
}

// domainTree builds the domain-structure tree of sld on US-3G, the data
// behind Figs. 7 and 8.
func (s *Suite) domainTree(sld string) *analytics.TreeNode {
	run := s.Run(synth.NameUS3G)
	return analytics.DomainTree(run.DB, run.Trace.OrgDB, sld)
}

// Figure7 renders the linkedin.com domain-structure tree (US-3G).
func (s *Suite) Figure7() Report {
	return Report{Text: "Figure 7: linkedin.com domain structure (US-3G)\n" + s.domainTree("linkedin.com").Render()}
}

// Figure8 renders the zynga.com domain-structure tree (US-3G).
func (s *Suite) Figure8() Report {
	return Report{Text: "Figure 8: zynga.com domain structure (US-3G)\n" + s.domainTree("zynga.com").Render()}
}

// Figure9SLDs lists the content orgs of Fig. 9 with their self-hosting
// provider names.
var Figure9SLDs = map[string]string{
	"facebook.com":    "facebook",
	"twitter.com":     "twitter",
	"dailymotion.com": "dailymotion",
}

// figure9Data builds one org × CDN heat map per Figure9SLDs entry across
// three vantage points, in SLD order.
func (s *Suite) figure9Data() []*analytics.Heatmap {
	traces := []string{synth.NameEU1ADSL1, synth.NameUS3G, synth.NameEU2ADSL}
	var slds []string
	for sld := range Figure9SLDs {
		slds = append(slds, sld)
	}
	sort.Strings(slds)
	var out []*analytics.Heatmap
	for _, sld := range slds {
		per := make(map[string]*analytics.SpatialResult)
		for _, tn := range traces {
			run := s.Run(tn)
			per[tn] = analytics.SpatialDiscovery(run.DB, run.Trace.OrgDB, sld)
		}
		out = append(out, analytics.BuildHeatmap(sld, Figure9SLDs[sld], per))
	}
	return out
}

// Figure9 reproduces the org × CDN access heat maps across three vantage
// points.
func (s *Suite) Figure9() Report {
	var b strings.Builder
	b.WriteString("Figure 9: organizations served by CDNs per vantage point\n")
	for _, h := range s.figure9Data() {
		b.WriteString(h.Render())
		b.WriteByte('\n')
	}
	return Report{Text: b.String()}
}

// tagCloud scores the top 15 appspot.com tokens of the live window.
func (s *Suite) tagCloud() []analytics.TagScore {
	return analytics.TagCloud(s.Live().DB, "appspot.com", 15)
}

// Figure10 renders the appspot tag cloud. Its metrics are the rank and
// score of the best token naming a tracker (0 when none does).
func (s *Suite) Figure10() Report {
	cloud := s.tagCloud()
	var rank, score float64
	if i := slices.IndexFunc(cloud, func(t analytics.TagScore) bool { return strings.Contains(t.Token, "tracker") }); i >= 0 {
		rank, score = float64(i+1), cloud[i].Score
	}
	return Report{
		Text:    "Figure 10: appspot.com service tag cloud (top 15)\n  " + analytics.FormatTags(cloud) + "\n",
		Metrics: []Metric{{"tracker-rank", rank}, {"tracker-score", score}},
	}
}

// Figure11 renders the tracker activity timeline.
func (s *Suite) Figure11() Report {
	rep := s.appspot()
	var b strings.Builder
	b.WriteString("Figure 11: BitTorrent trackers on appspot, activity per 4-h bin\n")
	ids := make([]int, 0, len(rep.Timeline))
	for id := range rep.Timeline {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	nBins := int(s.Live().Trace.Scenario.Duration / liveBin)
	most := 0
	for _, id := range ids {
		most = max(most, len(rep.Timeline[id]))
		row := make([]byte, nBins)
		for i := range row {
			row[i] = '.'
		}
		for _, bin := range rep.Timeline[id] {
			if bin < nBins {
				row[bin] = '#'
			}
		}
		fmt.Fprintf(&b, "  %2d %s\n", id, row)
	}
	return Report{Text: b.String(), Metrics: []Metric{
		{"trackers", float64(len(ids))},
		{"max-tracker-bins", float64(most)},
	}}
}

// delayCDFs returns the first-flow and any-flow DNS-to-flow delay CDFs of
// a trace.
func (s *Suite) delayCDFs(name string) (firstFlow, anyFlow *stats.CDF) {
	return analytics.DelayCDFs(s.Run(name).DB)
}

// Figure12And13 reproduces the first-flow and any-flow delay CDFs for every
// trace.
func (s *Suite) Figure12And13() Report {
	var b strings.Builder
	b.WriteString("Figures 12/13: DNS-to-flow delay CDFs (seconds)\n")
	fmt.Fprintf(&b, "  %-10s %18s %18s %18s\n", "Trace", "first<=1s", "first<=10s", "any<=3600s")
	var ftthFirst, adslAny float64
	for _, name := range synth.ScenarioNames {
		first, any := s.delayCDFs(name)
		switch name {
		case synth.NameEU1FTTH:
			ftthFirst = 100 * first.At(1)
		case synth.NameEU1ADSL1:
			adslAny = 100 * any.At(3600)
		}
		if first.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %17.0f%% %17.0f%% %17.0f%%\n",
			name, 100*first.At(1), 100*first.At(10), 100*any.At(3600))
	}
	return Report{Text: b.String(), Metrics: []Metric{
		{"%first<=1s", ftthFirst},
		{"%any<=1h", adslAny},
	}}
}

// dnsRates counts DNS responses per 10-min bin of a trace.
func (s *Suite) dnsRates(name string) []float64 {
	return analytics.DNSRate(s.Run(name).DNSTimes, 10*time.Minute)
}

// Figure14 reproduces the DNS responses-per-10-minute series.
func (s *Suite) Figure14() Report {
	var b strings.Builder
	b.WriteString("Figure 14: DNS responses per 10-min bin\n")
	var peak float64
	for _, name := range synth.ScenarioNames {
		vals := s.dnsRates(name)
		if name == synth.NameEU1ADSL1 {
			peak = maxF(vals)
		}
		fmt.Fprintf(&b, "  %-10s max=%6.0f  %s\n", name, maxF(vals), stats.Sparkline(vals))
	}
	return Report{Text: b.String(), Metrics: []Metric{{"peak-resp/10min", peak}}}
}

func toFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func maxF(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
