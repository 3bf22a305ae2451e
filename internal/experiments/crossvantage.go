package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"strings"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowdb"
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
		s.triOrgs = append(s.triOrgs, tr.OrgDB)
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

// distinctClients counts the client addresses of db's flows.
func distinctClients(db *flowdb.DB) int {
	seen := make(map[netip.Addr]bool)
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		seen[f.Key.ClientIP] = true
	}
	return len(seen)
}

// crossVantagePipeline observes the TRIVANTAGE run once into one
// pipeline: the provider footprint first, then one CDN-overlap query per
// CrossVantageSLDs entry. Each vantage pairs its flow partition with its
// own geo's IP → organization table.
func (s *Suite) crossVantagePipeline() *analytics.Pipeline {
	multi := s.TriVantage()
	var data []analytics.VantageData
	for i, name := range multi.Vantages {
		data = append(data, analytics.VantageData{Name: name, DB: multi.PerVantage[name].DB, Orgs: s.triOrgs[i]})
	}
	lookup := analytics.OrgLookupVantages(data)
	names := analytics.VantageNames(data)
	queries := []analytics.Query{analytics.NewExactProviderUsage(lookup, 10, names...)}
	for _, sld := range CrossVantageSLDs {
		queries = append(queries, analytics.NewExactCrossVantage(sld, lookup, names...))
	}
	pipe := analytics.NewPipeline(queries...)
	analytics.ObserveVantages(pipe, data)
	return pipe
}

// CrossVantage renders the multi-vantage report: per-vantage ingestion
// summary, the provider-footprint table, and per-SLD CDN-overlap
// comparisons, all from the single TRIVANTAGE run.
func (s *Suite) CrossVantage() Report {
	multi := s.TriVantage()
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-vantage analysis (TRIVANTAGE, one RunSources ingestion, %d vantages)\n",
		len(multi.Vantages))
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s\n", "Vantage", "Flows", "Labeled", "DNSresp", "Clients")
	for _, name := range multi.Vantages {
		v := multi.PerVantage[name]
		fmt.Fprintf(&b, "%-8s %10d %10d %10d %10d\n",
			name, v.Stats.Flows, v.Stats.LabeledFlows, v.Stats.DNSResponses, distinctClients(v.DB))
	}
	fmt.Fprintf(&b, "%-8s %10d %10d %10d\n", "TOTAL",
		multi.Stats.Flows, multi.Stats.LabeledFlows, multi.Stats.DNSResponses)
	b.WriteByte('\n')

	pipe := s.crossVantagePipeline()
	b.WriteString("Provider footprint (share of each vantage's labeled flows per hosting org)\n")
	b.WriteString(pipe.Snapshot()[0].Result.(*analytics.ProviderFootprint).Render())
	b.WriteByte('\n')

	b.WriteString("CDN overlap per content organization\n")
	for _, sld := range CrossVantageSLDs {
		q, _ := pipe.Query("cross_vantage:" + sld)
		b.WriteString(q.Snapshot().(*analytics.CrossVantage).Render())
	}
	return Report{Text: b.String()}
}
