// Package experiments regenerates every table and figure of the paper's
// evaluation (§5, §6) on synthetic traces: the per-experiment index lives
// in DESIGN.md, the measured-vs-paper record in EXPERIMENTS.md. Both
// cmd/experiments and the root bench harness drive this package.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/synth"
)

// Warmup discards flows from the first minutes, as the paper does for its
// hit-ratio numbers (§3.1.2).
const Warmup = 5 * time.Minute

// ScenarioRun bundles one generated trace with its pipeline output.
type ScenarioRun struct {
	Trace    *synth.Trace
	DB       *flowdb.DB
	Stats    core.Stats
	DNSTimes []time.Duration
}

// Suite lazily generates and runs scenarios, caching results so the table
// and figure experiments share work.
type Suite struct {
	Scale float64
	Seed  uint64
	// Shards parallelizes the pipeline runs (0/1 = exact single-threaded
	// reproduction, the default; any value yields identical flow sets and
	// aggregate stats).
	Shards int

	runs map[string]*ScenarioRun
	live *synth.EventTrace
	// LiveDays shortens the 18-day window for quick runs (0 = 18).
	LiveDays int
	// tri caches the multi-vantage TRIVANTAGE ingestion (see
	// crossvantage.go); triTraces keeps the generated traces in vantage
	// order for their OrgDB sidecars.
	tri       *core.MultiResult
	triTraces []*synth.Trace
}

// NewSuite creates a suite at the given scale (1.0 ≈ full laptop scale).
func NewSuite(scale float64, seed uint64) *Suite {
	return &Suite{Scale: scale, Seed: seed, runs: make(map[string]*ScenarioRun)}
}

// Run returns the pipeline output for a named scenario, generating it on
// first use.
func (s *Suite) Run(name string) *ScenarioRun {
	if r, ok := s.runs[name]; ok {
		return r
	}
	tr := synth.Generate(synth.NamedScenario(name, s.Scale, s.Seed))
	run := &ScenarioRun{Trace: tr}
	eng := core.NewEngine(core.EngineConfig{
		Shards: s.Shards,
		Truth:  tr.TruthFunc(),
		Sink: &core.FuncSink{DNS: func(e core.DNSEvent) {
			run.DNSTimes = append(run.DNSTimes, e.At)
		}},
	})
	res, err := eng.Run(context.Background(), tr.Source())
	if err != nil {
		panic(err) // in-memory source cannot fail
	}
	if eng.Shards() > 1 {
		// Shards deliver DNS events interleaved; restore trace order.
		sort.Slice(run.DNSTimes, func(i, j int) bool { return run.DNSTimes[i] < run.DNSTimes[j] })
	}
	run.DB = res.DB
	run.Stats = res.Stats
	s.runs[name] = run
	return run
}

// Live returns the 18-day event-mode trace, generating it on first use.
func (s *Suite) Live() *synth.EventTrace {
	if s.live == nil {
		sc := synth.DefaultLive18d(s.Seed)
		if s.LiveDays > 0 {
			sc.Days = s.LiveDays
		}
		if s.Scale < 1 {
			sc.Clients = int(float64(sc.Clients) * s.Scale)
			sc.SessionsPerDay = int(float64(sc.SessionsPerDay) * s.Scale)
			if sc.Clients < 5 {
				sc.Clients = 5
			}
			if sc.SessionsPerDay < 500 {
				sc.SessionsPerDay = 500
			}
		}
		s.live = synth.GenerateEvents(sc)
	}
	return s.live
}

// Table1 reproduces the dataset-description table: duration, peak DNS
// response rate, and TCP flow count per trace.
func (s *Suite) Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Dataset description (synthetic, scale %.2f)\n", s.Scale)
	fmt.Fprintf(&b, "%-10s %9s %14s %10s\n", "Trace", "Duration", "PeakDNS/min", "TCPflows")
	for _, name := range synth.ScenarioNames {
		run := s.Run(name)
		peak := 0.0
		for _, v := range analytics.DNSRate(run.DNSTimes, time.Minute) {
			if v > peak {
				peak = v
			}
		}
		fmt.Fprintf(&b, "%-10s %9s %12.0f/m %10d\n",
			name, run.Trace.Scenario.Duration, peak, run.DB.Len())
	}
	return b.String()
}

// Table2 reproduces the DNS resolver hit ratio per protocol.
func (s *Suite) Table2() string {
	var b strings.Builder
	b.WriteString("Table 2: DNS Resolver hit ratio (5 min warm-up)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %14s\n", "Trace", "HTTP", "TLS", "P2P")
	for _, name := range synth.ScenarioNames {
		run := s.Run(name)
		cov := run.DB.Coverage(Warmup)
		cell := func(p flows.L7Proto) string {
			return fmt.Sprintf("%3.0f%% (%d)", 100*cov.Ratio(p), cov.Total[p])
		}
		fmt.Fprintf(&b, "%-10s %14s %14s %14s\n",
			name, cell(flows.L7HTTP), cell(flows.L7TLS), cell(flows.L7P2P))
	}
	return b.String()
}

// Table3 reproduces DN-Hunter vs reverse lookup on 1000 sampled servers.
func (s *Suite) Table3() (string, analytics.CompareResult) {
	run := s.Run(synth.NameEU1ADSL2)
	res := analytics.ReverseLookupCompare(run.DB, run.Trace.PTRZone, 1000, newRNG(s.Seed))
	var b strings.Builder
	b.WriteString("Table 3: DN-Hunter vs. active reverse lookup (EU1-ADSL2)\n")
	for _, m := range []analytics.MatchClass{analytics.MatchExact, analytics.MatchSLD, analytics.MatchDifferent, analytics.MatchNone} {
		fmt.Fprintf(&b, "  %-24s %5.0f%%\n", m, 100*res.Fraction(m))
	}
	return b.String(), res
}

// Table4 reproduces certificate inspection vs DN-Hunter on TLS flows.
func (s *Suite) Table4() (string, analytics.CompareResult) {
	run := s.Run(synth.NameEU1ADSL2)
	res := analytics.CertCompare(run.DB)
	var b strings.Builder
	b.WriteString("Table 4: TLS certificate inspection vs. DN-Hunter (EU1-ADSL2)\n")
	rows := []struct {
		label string
		class analytics.MatchClass
	}{
		{"Certificate equal FQDN", analytics.MatchExact},
		{"Generic certificate", analytics.MatchGeneric},
		{"Same 2nd-level", analytics.MatchSLD},
		{"Totally different", analytics.MatchDifferent},
		{"No certificate", analytics.MatchNone},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %5.0f%%\n", r.label, 100*res.Fraction(r.class))
	}
	return b.String(), res
}

// Table5 reproduces the top-10 second-level domains on Amazon EC2 for the
// US and EU vantage points.
func (s *Suite) Table5() string {
	var b strings.Builder
	b.WriteString("Table 5: Top-10 domains hosted on the Amazon cloud\n")
	us, eu := s.Table5Data()
	fmt.Fprintf(&b, "%-4s %-24s %5s   %-24s %5s\n", "Rank", "US-3G", "%", "EU1-ADSL1", "%")
	for i := 0; i < 10; i++ {
		usName, usShare := "-", 0.0
		if i < len(us) {
			usName, usShare = us[i].Name, us[i].Share
		}
		euName, euShare := "-", 0.0
		if i < len(eu) {
			euName, euShare = eu[i].Name, eu[i].Share
		}
		fmt.Fprintf(&b, "%-4d %-24s %4.0f%%   %-24s %4.0f%%\n", i+1, usName, 100*usShare, euName, 100*euShare)
	}
	return b.String()
}

// Table5Data returns the ranked SLD lists for assertions, via the
// content-discovery Query (one ObserveDB pass per vantage).
func (s *Suite) Table5Data() (us, eu []analytics.ContentShare) {
	top := func(name string) []analytics.ContentShare {
		run := s.Run(name)
		p := analytics.NewPipeline(analytics.NewExactTopContent("amazon", analytics.OrgLookupDB(run.Trace.OrgDB), analytics.BySLD, 10))
		p.ObserveDB(run.DB)
		cs, _ := p.Snapshot()[0].Result.([]analytics.ContentShare)
		return cs
	}
	return top(synth.NameUS3G), top(synth.NameEU1ADSL1)
}

// Table6Ports are the well-known ports of Table 6 (EU1-FTTH).
var Table6Ports = []uint16{25, 110, 143, 554, 587, 995, 1863}

// Table7Ports are the ephemeral service ports of Table 7 (US-3G).
var Table7Ports = []uint16{1080, 1337, 2710, 5050, 5190, 5222, 5223, 5228, 6969, 12043, 12046, 18182}

// tagTable renders one keyword-extraction table.
func (s *Suite) tagTable(title, scenario string, ports []uint16) string {
	run := s.Run(scenario)
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n%-6s %-58s %s\n", title, scenario, "Port", "Keywords", "GT")
	for _, port := range ports {
		tags := analytics.ExtractTags(run.DB, port, 5)
		gt := run.Trace.ServiceGT[port]
		fmt.Fprintf(&b, "%-6d %-58s %s\n", port, analytics.FormatTags(tags), gt)
	}
	return b.String()
}

// Table6 reproduces keyword extraction on well-known ports.
func (s *Suite) Table6() string {
	return s.tagTable("Table 6: Keyword extraction, well-known ports", synth.NameEU1FTTH, Table6Ports)
}

// Table7 reproduces keyword extraction on frequently used ephemeral ports.
func (s *Suite) Table7() string {
	return s.tagTable("Table 7: Keyword extraction, ephemeral ports", synth.NameUS3G, Table7Ports)
}

// Table8 reproduces the appspot service mix from the live deployment.
func (s *Suite) Table8() (string, *analytics.AppspotReport) {
	rep := analytics.AppspotTracking(s.Live(), 4*time.Hour)
	var b strings.Builder
	b.WriteString("Table 8: Appspot services (event-mode live trace)\n")
	fmt.Fprintf(&b, "  %-22s %9s %8s %10s %10s\n", "Service type", "Services", "Flows", "C2S bytes", "S2C bytes")
	fmt.Fprintf(&b, "  %-22s %9d %8d %10d %10d\n", "BitTorrent trackers",
		rep.TrackerServices, rep.TrackerFlows, rep.TrackerC2S, rep.TrackerS2C)
	fmt.Fprintf(&b, "  %-22s %9d %8d %10d %10d\n", "General services",
		rep.GeneralServices, rep.GeneralFlows, rep.GeneralC2S, rep.GeneralS2C)
	return b.String(), rep
}

// Table9 reproduces the useless-DNS fractions.
func (s *Suite) Table9() string {
	var b strings.Builder
	b.WriteString("Table 9: Fraction of useless DNS resolutions\n")
	for _, name := range synth.ScenarioNames {
		fmt.Fprintf(&b, "  %-10s %4.0f%%\n", name, 100*s.Run(name).Stats.UselessDNSFraction())
	}
	return b.String()
}
