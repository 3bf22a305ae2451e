package analytics

import (
	"context"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/orgdb"
	"repro/internal/synth"
)

// TestSpatialDiscoveryPoolsVantages runs Algorithm 2 over a Merge of two
// vantage-stamped databases: every labeled flow to the SLD counts, from
// either vantage, and the per-org and per-FQDN aggregates span both.
func TestSpatialDiscoveryPoolsVantages(t *testing.T) {
	odb := orgdb.New([]orgdb.Entry{
		{Prefix: netip.MustParsePrefix("20.0.0.0/24"), Org: "cdn-a"},
		{Prefix: netip.MustParsePrefix("30.0.0.0/24"), Org: "cdn-b"},
	})
	stamped := func(vantage string, fs ...flowdb.LabeledFlow) *flowdb.DB {
		db := flowdb.New()
		for _, f := range fs {
			f.Vantage = vantage
			db.Add(f)
		}
		return db
	}
	a := stamped("A",
		mkFlow("10.0.0.1", "20.0.0.1", 80, "img.site.com", flows.L7HTTP, 0),
		mkFlow("10.0.0.1", "20.0.0.1", 80, "img.site.com", flows.L7HTTP, 0),
		mkFlow("10.0.0.2", "20.0.0.1", 80, "img.site.com", flows.L7HTTP, 0),
		mkFlow("10.0.0.1", "30.0.0.1", 80, "www.site.com", flows.L7HTTP, 0),
		mkFlow("10.0.0.1", "30.0.0.2", 80, "other.example.org", flows.L7HTTP, 0),
		mkFlow("10.0.0.1", "20.0.0.1", 80, "", flows.L7HTTP, 0), // unlabeled
	)
	b := stamped("B",
		mkFlow("10.1.0.1", "20.0.0.2", 80, "img.site.com", flows.L7HTTP, 0),
		mkFlow("10.1.0.1", "20.0.0.2", 80, "img.site.com", flows.L7HTTP, 0),
		mkFlow("10.1.0.1", "30.0.0.1", 443, "www.site.com", flows.L7TLS, 0),
		mkFlow("10.1.0.2", "40.0.0.1", 443, "api.site.com", flows.L7TLS, 0), // no org
	)
	db := flowdb.New()
	db.Merge(a, b)

	res := SpatialDiscovery(db, odb, "www.site.com")
	if res.SLD != "site.com" || res.TotalFlows != 8 {
		t.Fatalf("SLD %q, %d flows; want site.com, 8", res.SLD, res.TotalFlows)
	}
	wantHosts := []HostShare{
		{Org: "cdn-a", Servers: 2, Flows: 5, FlowShare: 5.0 / 8, FQDNs: []string{"img.site.com"}},
		{Org: "cdn-b", Servers: 1, Flows: 2, FlowShare: 2.0 / 8, FQDNs: []string{"www.site.com"}},
		{Org: "unknown", Servers: 1, Flows: 1, FlowShare: 1.0 / 8, FQDNs: []string{"api.site.com"}},
	}
	if !reflect.DeepEqual(res.Hosts, wantHosts) {
		t.Errorf("hosts = %+v\nwant %+v", res.Hosts, wantHosts)
	}
	addrs := func(ss ...string) []netip.Addr {
		out := make([]netip.Addr, len(ss))
		for i, s := range ss {
			out[i] = netip.MustParseAddr(s)
		}
		return out
	}
	wantPer := map[string][]netip.Addr{
		"img.site.com": addrs("20.0.0.1", "20.0.0.2"),
		"www.site.com": addrs("30.0.0.1"),
		"api.site.com": addrs("40.0.0.1"),
	}
	if !reflect.DeepEqual(res.PerFQDN, wantPer) {
		t.Errorf("per-FQDN servers = %v\nwant %v", res.PerFQDN, wantPer)
	}
}

// TestCrossVantageMatchesSpatialDiscovery pins the cross-vantage query's
// per-vantage result to Algorithm 2 run on that vantage's own database
// with its own org table, over the TRIVANTAGE scenario.
func TestCrossVantageMatchesSpatialDiscovery(t *testing.T) {
	var sources []core.NamedSource
	var data []VantageData
	for _, sc := range synth.TriVantageScenarios(0.2, 1) {
		tr := synth.Generate(sc)
		sources = append(sources, core.NamedSource{Name: sc.Name, Src: tr.Source(), Truth: tr.TruthFunc()})
		data = append(data, VantageData{Name: sc.Name, Orgs: tr.OrgDB})
	}
	multi, err := core.NewEngine(core.EngineConfig{}).RunSources(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i].DB = multi.PerVantage[data[i].Name].DB
	}
	lookup := OrgLookupVantages(data)
	for _, sld := range []string{"facebook.com", "twitter.com", "dailymotion.com"} {
		cv := snapshotVantages(NewExactCrossVantage(sld, lookup, VantageNames(data)...), data).(*CrossVantage)
		for _, v := range data {
			want := SpatialDiscovery(v.DB, v.Orgs, sld)
			if want.TotalFlows == 0 {
				t.Errorf("%s at %s: no flows; the comparison would be vacuous", sld, v.Name)
			}
			if got := cv.Per[v.Name]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %s: cross-vantage %+v\nspatial discovery %+v", sld, v.Name, got, want)
			}
		}
	}
}
