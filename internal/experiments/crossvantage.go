package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/synth"
)

// crossvantage.go drives the multi-source Engine over the TRIVANTAGE
// scenario — three geographies expanded from one seed — and reproduces the
// paper's cross-vantage comparisons (provider footprints and CDN overlap à
// la Figs. 7-9 / Tables 5-8) from a single ingestion run instead of N runs
// plus hand-merging.

// CrossVantageSLDs are the content organizations compared across vantage
// points (the Fig. 9 set).
var CrossVantageSLDs = []string{"facebook.com", "twitter.com", "dailymotion.com"}

// TriVantage runs the TRIVANTAGE scenario once — all three vantages ingested
// concurrently by one Engine.RunSources call — and caches the result.
func (s *Suite) TriVantage() *core.MultiResult {
	if s.tri != nil {
		return s.tri
	}
	var sources []core.NamedSource
	for _, sc := range synth.TriVantageScenarios(s.Scale, s.Seed) {
		tr := synth.Generate(sc)
		s.triTraces = append(s.triTraces, tr)
		sources = append(sources, core.NamedSource{Name: sc.Name, Src: tr.Source(), Truth: tr.TruthFunc()})
	}
	eng := core.NewEngine(core.EngineConfig{Shards: s.Shards})
	multi, err := eng.RunSources(context.Background(), sources)
	if err != nil {
		panic(err) // in-memory sources cannot fail
	}
	s.tri = multi
	return multi
}

// triVantageData adapts the cached TRIVANTAGE run for the cross-vantage
// analytics: each vantage pairs its flow partition with its own geo's
// IP → organization table.
func (s *Suite) triVantageData() []analytics.VantageData {
	multi := s.TriVantage()
	out := make([]analytics.VantageData, 0, len(multi.Vantages))
	for i, name := range multi.Vantages {
		out = append(out, analytics.VantageData{
			Name: name,
			DB:   multi.PerVantage[name].DB,
			Orgs: s.triTraces[i].OrgDB,
		})
	}
	return out
}

// CrossVantage renders the multi-vantage report: per-vantage ingestion
// summary, the provider-footprint table, and per-SLD CDN-overlap
// comparisons, all from the single TRIVANTAGE run.
func (s *Suite) CrossVantage() (string, *analytics.ProviderFootprint) {
	multi := s.TriVantage()
	data := s.triVantageData()
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-vantage analysis (TRIVANTAGE, one RunSources ingestion, %d vantages)\n",
		len(multi.Vantages))
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s\n", "Vantage", "Flows", "Labeled", "DNSresp", "Clients")
	for _, name := range multi.Vantages {
		st := multi.PerVantage[name].Stats
		fmt.Fprintf(&b, "%-8s %10d %10d %10d %10d\n",
			name, st.Flows, st.LabeledFlows, st.DNSResponses, st.Resolver.ClientsPeak)
	}
	fmt.Fprintf(&b, "%-8s %10d %10d %10d\n", "TOTAL",
		multi.Stats.Flows, multi.Stats.LabeledFlows, multi.Stats.DNSResponses)
	b.WriteByte('\n')

	// One pipeline, one pass: the provider footprint and every per-SLD
	// overlap query observe the same single walk over the vantage
	// databases.
	lookup := analytics.OrgLookupVantages(data)
	names := analytics.VantageNames(data)
	queries := []analytics.Query{analytics.NewExactProviderUsage(lookup, 10, names...)}
	for _, sld := range CrossVantageSLDs {
		queries = append(queries, analytics.NewExactCrossVantage(sld, lookup, names...))
	}
	pipe := analytics.NewPipeline(queries...)
	analytics.ObserveVantages(pipe, data)

	b.WriteString("Provider footprint (share of each vantage's labeled flows per hosting org)\n")
	pf := pipe.Snapshot()[0].Result.(*analytics.ProviderFootprint)
	b.WriteString(pf.Render())
	b.WriteByte('\n')

	b.WriteString("CDN overlap per content organization\n")
	for _, sld := range CrossVantageSLDs {
		q, _ := pipe.Query("cross_vantage:" + sld)
		b.WriteString(q.Snapshot().(*analytics.CrossVantage).Render())
	}
	return b.String(), pf
}
