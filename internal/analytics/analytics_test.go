package analytics

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/orgdb"
	"repro/internal/stats"
)

// mkFlow builds a labeled flow for tests.
func mkFlow(client, server string, port uint16, label string, l7 flows.L7Proto, start time.Duration) flowdb.LabeledFlow {
	return flowdb.LabeledFlow{
		Record: flows.Record{
			Key: flows.Key{
				ClientIP:   netip.MustParseAddr(client),
				ServerIP:   netip.MustParseAddr(server),
				ClientPort: 40000, ServerPort: port,
				Proto: layers.IPProtocolTCP,
			},
			Start: start, End: start + time.Second, L7: l7,
		},
		Label: label, Labeled: label != "",
	}
}

func testDB() *flowdb.DB {
	db := flowdb.New()
	// Mail service on port 25: two clients, skewed usage.
	for i := 0; i < 9; i++ {
		db.Add(mkFlow("10.0.0.1", "62.101.1.1", 25, "smtp2.mail.isp.com", flows.L7Unknown, time.Duration(i)*time.Minute))
	}
	db.Add(mkFlow("10.0.0.2", "62.101.1.1", 25, "smtp1.mail.isp.com", flows.L7Unknown, time.Minute))
	db.Add(mkFlow("10.0.0.2", "62.101.1.2", 25, "mx3.gmail.com", flows.L7Unknown, time.Minute))
	return db
}

func TestExtractTagsPaperSemantics(t *testing.T) {
	db := testDB()
	tags := ExtractTags(db, 25, 10)
	if len(tags) == 0 {
		t.Fatal("no tags")
	}
	// smtpN appears for both clients; mail for both; mxN for one.
	byTok := map[string]TagScore{}
	for _, tg := range tags {
		byTok[tg.Token] = tg
	}
	if _, ok := byTok["smtpN"]; !ok {
		t.Fatalf("smtpN missing: %v", tags)
	}
	if _, ok := byTok["mail"]; !ok {
		t.Fatalf("mail missing: %v", tags)
	}
	if _, ok := byTok["mxN"]; !ok {
		t.Fatalf("mxN missing: %v", tags)
	}
	// Log damping: client 1's nine flows contribute log(10), not 9.
	// score(smtpN) = log(9+1) + log(1+1) ≈ 2.99; score(mail) same; both
	// must exceed mxN = log(2) ≈ 0.69.
	if byTok["smtpN"].Score <= byTok["mxN"].Score {
		t.Fatalf("scores: %v", tags)
	}
	if byTok["smtpN"].Score > 4 {
		t.Fatalf("log damping missing: score = %v", byTok["smtpN"].Score)
	}
}

func TestExtractTagsRawVsDamped(t *testing.T) {
	db := testDB()
	raw := ExtractTagsRaw(db, 25, 10)
	byTok := map[string]TagScore{}
	for _, tg := range raw {
		byTok[tg.Token] = tg
	}
	// Raw counts: smtpN carries 10 flows.
	if byTok["smtpN"].Score != 10 {
		t.Fatalf("raw score = %v", byTok["smtpN"].Score)
	}
}

func TestExtractTagsEmptyPort(t *testing.T) {
	if tags := ExtractTags(testDB(), 9999, 5); len(tags) != 0 {
		t.Fatalf("tags on unused port: %v", tags)
	}
}

func TestExtractTagsKLimit(t *testing.T) {
	tags := ExtractTags(testDB(), 25, 1)
	if len(tags) != 1 {
		t.Fatalf("k ignored: %v", tags)
	}
}

func TestFormatTags(t *testing.T) {
	s := FormatTags([]TagScore{{Token: "smtp", Score: 91}, {Token: "mail", Score: 37}})
	if s != "(91)smtp, (37)mail" {
		t.Fatalf("got %q", s)
	}
}

func TestTagCloud(t *testing.T) {
	recs := []flowdb.LabeledFlow{
		mkFlow("10.0.0.1", "173.194.1.1", 80, "open-tracker.appspot.com", flows.L7HTTP, 0),
		mkFlow("10.0.0.2", "173.194.1.1", 80, "open-tracker.appspot.com", flows.L7HTTP, 0),
		mkFlow("10.0.0.1", "173.194.1.2", 80, "todo-7.appspot.com", flows.L7HTTP, 0),
		mkFlow("10.0.0.1", "1.1.1.1", 80, "www.other.com", flows.L7HTTP, 0),
	}
	for i := range recs {
		recs[i].SLD = stats.SLD(recs[i].Label)
	}
	cloud := TagCloud(recs, "appspot.com", 0)
	if len(cloud) != 2 {
		t.Fatalf("cloud = %v", cloud)
	}
	if cloud[0].Token != "open-tracker" {
		t.Fatalf("top token = %q", cloud[0].Token)
	}
	if cloud[1].Token != "todo-N" {
		t.Fatalf("digits not generalized: %q", cloud[1].Token)
	}
}

func orgDB() *orgdb.DB {
	return orgdb.New([]orgdb.Entry{
		{Prefix: netip.MustParsePrefix("23.0.0.0/8"), Org: "akamai"},
		{Prefix: netip.MustParsePrefix("54.0.0.0/8"), Org: "amazon"},
		{Prefix: netip.MustParsePrefix("108.0.0.0/8"), Org: "linkedin"},
	})
}

func spatialDB() *flowdb.DB {
	db := flowdb.New()
	// linkedin.com: 6 flows edgecast-less version: 3 self, 2 akamai, 1 amazon.
	db.Add(mkFlow("10.0.0.1", "108.0.0.1", 443, "www.linkedin.com", flows.L7TLS, 0))
	db.Add(mkFlow("10.0.0.2", "108.0.0.1", 443, "www.linkedin.com", flows.L7TLS, 0))
	db.Add(mkFlow("10.0.0.1", "108.0.0.2", 443, "api.linkedin.com", flows.L7TLS, 0))
	db.Add(mkFlow("10.0.0.1", "23.0.0.1", 80, "media1.linkedin.com", flows.L7HTTP, 0))
	db.Add(mkFlow("10.0.0.1", "23.0.0.2", 80, "media2.linkedin.com", flows.L7HTTP, 0))
	db.Add(mkFlow("10.0.0.1", "54.0.0.1", 80, "static.linkedin.com", flows.L7HTTP, 0))
	// Unrelated org.
	db.Add(mkFlow("10.0.0.1", "54.0.0.9", 80, "www.zynga.com", flows.L7HTTP, 0))
	return db
}

func TestSpatialDiscovery(t *testing.T) {
	res := SpatialDiscovery(spatialDB(), orgDB(), "media1.linkedin.com")
	if res.SLD != "linkedin.com" {
		t.Fatalf("SLD = %q", res.SLD)
	}
	if res.TotalFlows != 6 {
		t.Fatalf("flows = %d", res.TotalFlows)
	}
	if len(res.Hosts) != 3 {
		t.Fatalf("hosts = %+v", res.Hosts)
	}
	// linkedin self-hosting leads with 3 flows over 2 servers.
	if res.Hosts[0].Org != "linkedin" || res.Hosts[0].Servers != 2 || res.Hosts[0].Flows != 3 {
		t.Fatalf("top host = %+v", res.Hosts[0])
	}
	if res.Hosts[0].FlowShare != 0.5 {
		t.Fatalf("share = %v", res.Hosts[0].FlowShare)
	}
	// Per-FQDN server sets.
	if servers := res.PerFQDN["www.linkedin.com"]; len(servers) != 1 {
		t.Fatalf("www servers = %v", servers)
	}
	if len(res.PerFQDN) != 5 {
		t.Fatalf("per-FQDN entries = %d", len(res.PerFQDN))
	}
}

func TestDomainTree(t *testing.T) {
	tree := DomainTree(spatialDB(), orgDB(), "linkedin.com")
	if tree.Token != "linkedin.com" || tree.Flows != 6 {
		t.Fatalf("root = %+v", tree)
	}
	// mediaN must merge media1 and media2.
	var mediaN *TreeNode
	for _, c := range tree.Children {
		if c.Token == "mediaN" {
			mediaN = c
		}
	}
	if mediaN == nil {
		t.Fatalf("mediaN child missing: %+v", tree.Children)
	}
	if mediaN.Flows != 2 || mediaN.DominantOrg() != "akamai" {
		t.Fatalf("mediaN = %+v", mediaN)
	}
	// www leads by flow count among single-name children.
	if tree.Children[0].Token != "mediaN" && tree.Children[0].Token != "www" {
		t.Fatalf("ordering: %q", tree.Children[0].Token)
	}
	if tree.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestHeatmap(t *testing.T) {
	db := spatialDB()
	odb := orgDB()
	per := map[string]*SpatialResult{
		"T1": SpatialDiscovery(db, odb, "linkedin.com"),
		"T2": SpatialDiscovery(db, odb, "linkedin.com"),
	}
	h := BuildHeatmap("linkedin.com", "linkedin", per)
	if h.HostOrgs[0] != "SELF" {
		t.Fatalf("orgs = %v", h.HostOrgs)
	}
	if v := h.Rows["T1"]["SELF"]; v != 0.5 {
		t.Fatalf("SELF share = %v", v)
	}
	if h.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestContentDiscovery(t *testing.T) {
	top := func(g Granularity) []ContentShare {
		p := NewPipeline(NewExactTopContent("amazon", OrgLookupDB(orgDB()), g, 10))
		p.ObserveDB(spatialDB())
		out, _ := p.Snapshot()[0].Result.([]ContentShare)
		return out
	}
	bySLD := top(BySLD)
	if len(bySLD) != 2 {
		t.Fatalf("content = %+v", bySLD)
	}
	names := map[string]bool{}
	for _, c := range bySLD {
		names[c.Name] = true
	}
	if !names["linkedin.com"] || !names["zynga.com"] {
		t.Fatalf("content = %+v", bySLD)
	}
	// FQDN granularity keeps full names.
	topF := top(ByFQDN)
	if len(topF) != 2 || (topF[0].Name != "static.linkedin.com" && topF[0].Name != "www.zynga.com") {
		t.Fatalf("fqdn content = %+v", topF)
	}
}

// TestExactTopContent: the Table 5 query over one hosting org's servers.
func TestExactTopContent(t *testing.T) {
	p := NewPipeline(NewExactTopContent("akamai", OrgLookupDB(orgDB()), BySLD, 5))
	p.ObserveDB(spatialDB())
	top, _ := p.Snapshot()[0].Result.([]ContentShare)
	if len(top) != 1 || top[0].Name != "linkedin.com" || top[0].Flows != 2 {
		t.Fatalf("top = %+v", top)
	}
}

func TestFanoutCDFs(t *testing.T) {
	db := flowdb.New()
	// fqdn-a on 3 servers; fqdn-b on 1; server 1.1.1.1 carries 2 names.
	db.Add(mkFlow("10.0.0.1", "1.1.1.1", 80, "a.x.com", flows.L7HTTP, 0))
	db.Add(mkFlow("10.0.0.1", "1.1.1.2", 80, "a.x.com", flows.L7HTTP, 0))
	db.Add(mkFlow("10.0.0.1", "1.1.1.3", 80, "a.x.com", flows.L7HTTP, 0))
	db.Add(mkFlow("10.0.0.1", "1.1.1.1", 80, "b.x.com", flows.L7HTTP, 0))
	ipsPer, fqdnsPer := FanoutCDFs(db)
	if ipsPer.Len() != 2 || fqdnsPer.Len() != 3 {
		t.Fatalf("lens = %d %d", ipsPer.Len(), fqdnsPer.Len())
	}
	if got := ipsPer.At(1); got != 0.5 {
		t.Fatalf("P(ips<=1) = %v", got)
	}
	fqdnSingle, ipSingle := SingletonShares(db)
	if fqdnSingle != 0.5 {
		t.Fatalf("fqdnSingle = %v", fqdnSingle)
	}
	if ipSingle < 0.6 || ipSingle > 0.7 {
		t.Fatalf("ipSingle = %v", ipSingle)
	}
}

func TestReverseLookupCompare(t *testing.T) {
	db := flowdb.New()
	db.Add(mkFlow("10.0.0.1", "1.1.1.1", 80, "www.x.com", flows.L7HTTP, 0))
	db.Add(mkFlow("10.0.0.1", "1.1.1.2", 80, "www.y.com", flows.L7HTTP, 0))
	db.Add(mkFlow("10.0.0.1", "1.1.1.3", 80, "www.z.com", flows.L7HTTP, 0))
	db.Add(mkFlow("10.0.0.1", "1.1.1.4", 80, "www.w.com", flows.L7HTTP, 0))
	zone := map[netip.Addr]string{
		netip.MustParseAddr("1.1.1.1"): "www.x.com",      // exact
		netip.MustParseAddr("1.1.1.2"): "server9.y.com",  // same SLD
		netip.MustParseAddr("1.1.1.3"): "a1.cdnhost.net", // different
		netip.MustParseAddr("1.1.1.4"): "",               // no answer
	}
	res := ReverseLookupCompare(db, zone, 10, stats.NewRNG(1))
	if res.Total != 4 {
		t.Fatalf("total = %d", res.Total)
	}
	for class, want := range map[MatchClass]int{MatchExact: 1, MatchSLD: 1, MatchDifferent: 1, MatchNone: 1} {
		if res.Counts[class] != want {
			t.Fatalf("class %v = %d, want %d (%+v)", class, res.Counts[class], want, res.Counts)
		}
	}
	if res.Fraction(MatchExact) != 0.25 {
		t.Fatalf("fraction = %v", res.Fraction(MatchExact))
	}
}

func TestCertCompare(t *testing.T) {
	mk := func(label string, cert string, has bool) flowdb.LabeledFlow {
		f := mkFlow("10.0.0.1", "1.1.1.1", 443, label, flows.L7TLS, 0)
		f.CertName, f.HasCert = cert, has
		return f
	}
	db := flowdb.New()
	for _, f := range []flowdb.LabeledFlow{
		mk("www.x.com", "www.x.com", true),                              // exact
		mk("mail.google.com", "*.google.com", true),                     // generic
		mk("static.zynga.com", "a248.e.akamai.net", true),               // different
		mk("www.z.com", "", true),                                       // nameless certificate: different
		mk("www.y.com", "", false),                                      // no certificate
		mkFlow("10.0.0.1", "1.1.1.1", 80, "www.h.com", flows.L7HTTP, 0), // non-TLS: excluded
	} {
		db.Add(f)
	}
	res := CertCompare(db)
	if res.Total != 5 {
		t.Fatalf("total = %d", res.Total)
	}
	for class, want := range map[MatchClass]int{MatchExact: 1, MatchGeneric: 1, MatchDifferent: 2, MatchNone: 1} {
		if res.Counts[class] != want {
			t.Fatalf("class %v = %d (%+v)", class, res.Counts[class], res.Counts)
		}
	}
}

func TestMatchClassString(t *testing.T) {
	for _, m := range []MatchClass{MatchExact, MatchSLD, MatchGeneric, MatchDifferent, MatchNone} {
		if m.String() == "" {
			t.Fatal("empty class name")
		}
	}
}

func TestServerTimeseries(t *testing.T) {
	db := flowdb.New()
	db.Add(mkFlow("10.0.0.1", "1.1.1.1", 80, "a.x.com", flows.L7HTTP, time.Minute))
	db.Add(mkFlow("10.0.0.1", "1.1.1.2", 80, "b.x.com", flows.L7HTTP, 2*time.Minute))
	db.Add(mkFlow("10.0.0.1", "1.1.1.1", 80, "a.x.com", flows.L7HTTP, 15*time.Minute))
	ts := ServerTimeseries(db, []string{"x.com"}, 10*time.Minute)
	if got := ts["x.com"]; len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("series = %v", got)
	}
}

func TestCDNTimeseries(t *testing.T) {
	db := spatialDB()
	ts := CDNTimeseries(db, orgDB(), []string{"akamai", "amazon"}, 10*time.Minute)
	if got := ts["akamai"]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("akamai series = %v", got)
	}
	if got := ts["amazon"]; got[0] != 2 {
		t.Fatalf("amazon series = %v", got)
	}
}

func TestDelayCDFs(t *testing.T) {
	db := flowdb.New()
	f1 := mkFlow("10.0.0.1", "1.1.1.1", 80, "a.x.com", flows.L7HTTP, time.Second)
	f1.DNSDelay = 500 * time.Millisecond
	f1.FirstAfterDNS = true
	f2 := mkFlow("10.0.0.1", "1.1.1.1", 80, "a.x.com", flows.L7HTTP, 2*time.Second)
	f2.DNSDelay = 90 * time.Second
	db.Add(f1)
	db.Add(f2)
	first, any := DelayCDFs(db)
	if first.Len() != 1 || any.Len() != 2 {
		t.Fatalf("lens = %d %d", first.Len(), any.Len())
	}
	if first.At(1) != 1 {
		t.Fatalf("first-flow CDF at 1s = %v", first.At(1))
	}
	if any.At(1) != 0.5 {
		t.Fatalf("any-flow CDF at 1s = %v", any.At(1))
	}
}

func TestDNSRate(t *testing.T) {
	times := []time.Duration{time.Minute, 2 * time.Minute, 11 * time.Minute}
	vs := DNSRate(times, 10*time.Minute)
	if len(vs) != 2 || vs[0] != 2 || vs[1] != 1 {
		t.Fatalf("rate = %v", vs)
	}
}

// crossVantageFixture builds two vantages observing the same content org:
// both see cdn-a, only one sees cdn-b, with disjoint server addresses for
// the shared host org.
func crossVantageFixture() []VantageData {
	odb := orgdb.New([]orgdb.Entry{
		{Prefix: netip.MustParsePrefix("20.0.0.0/24"), Org: "cdn-a"},
		{Prefix: netip.MustParsePrefix("30.0.0.0/24"), Org: "cdn-b"},
	})

	us := flowdb.New()
	for i := 0; i < 6; i++ {
		us.Add(mkFlow("10.0.0.1", "20.0.0.1", 80, "img.site.com", flows.L7HTTP, time.Duration(i)*time.Second))
	}
	us.Add(mkFlow("10.0.0.1", "30.0.0.1", 80, "www.site.com", flows.L7HTTP, time.Minute))
	us.Add(mkFlow("10.0.0.1", "30.0.0.2", 80, "other.example.org", flows.L7HTTP, time.Minute))

	eu := flowdb.New()
	for i := 0; i < 4; i++ {
		eu.Add(mkFlow("10.0.0.9", "20.0.0.200", 80, "img.site.com", flows.L7HTTP, time.Duration(i)*time.Second))
	}
	return []VantageData{
		{Name: "US", DB: us, Orgs: odb},
		{Name: "EU", DB: eu, Orgs: odb},
	}
}

// snapshotVantages feeds every vantage's database through a one-query
// pipeline and returns the query's snapshot.
func snapshotVantages(q Query, vantages []VantageData) Result {
	p := NewPipeline(q)
	ObserveVantages(p, vantages)
	return p.Snapshot()[0].Result
}

// providerUsage is the exact provider footprint over the fixture.
func providerUsage(t *testing.T, k int) *ProviderFootprint {
	vs := crossVantageFixture()
	pf, ok := snapshotVantages(NewExactProviderUsage(OrgLookupVantages(vs), k, VantageNames(vs)...), vs).(*ProviderFootprint)
	if !ok {
		t.Fatal("provider_usage snapshot is not a *ProviderFootprint")
	}
	return pf
}

func TestProviderUsage(t *testing.T) {
	pf := providerUsage(t, 0)
	if len(pf.Vantages) != 2 || pf.Vantages[0] != "US" {
		t.Fatalf("vantages = %v", pf.Vantages)
	}
	// cdn-a carries 10 flows total vs cdn-b's 2: ranked first.
	if len(pf.Orgs) != 2 || pf.Orgs[0] != "cdn-a" {
		t.Fatalf("orgs = %v", pf.Orgs)
	}
	if pf.LabeledFlows["US"] != 8 || pf.LabeledFlows["EU"] != 4 {
		t.Fatalf("labeled flows = %v", pf.LabeledFlows)
	}
	if got := pf.Share["US"]["cdn-a"]; got != 0.75 {
		t.Errorf("US cdn-a share = %v, want 0.75", got)
	}
	if got := pf.Share["EU"]["cdn-a"]; got != 1.0 {
		t.Errorf("EU cdn-a share = %v, want 1", got)
	}
	if got := pf.Share["EU"]["cdn-b"]; got != 0 {
		t.Errorf("EU cdn-b share = %v, want 0", got)
	}
	if pf.Servers["US"]["cdn-b"] != 2 || pf.Servers["EU"]["cdn-a"] != 1 {
		t.Errorf("servers = %v", pf.Servers)
	}
	// k=1 truncates to the top org.
	if top := providerUsage(t, 1); len(top.Orgs) != 1 || top.Orgs[0] != "cdn-a" {
		t.Errorf("top-1 orgs = %v", top.Orgs)
	}
	out := pf.Render()
	for _, want := range []string{"cdn-a", "cdn-b", "US", "EU", "labeled flows"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestExactCrossVantage(t *testing.T) {
	vs := crossVantageFixture()
	cv, ok := snapshotVantages(NewExactCrossVantage("www.site.com", OrgLookupVantages(vs), VantageNames(vs)...), vs).(*CrossVantage)
	if !ok {
		t.Fatal("cross-vantage snapshot is not a *CrossVantage")
	}
	if cv.SLD != "site.com" {
		t.Fatalf("SLD = %q", cv.SLD)
	}
	if len(cv.Vantages) != 2 {
		t.Fatalf("vantages = %v", cv.Vantages)
	}
	// US sees {cdn-a, cdn-b} for site.com, EU sees {cdn-a}: Jaccard 1/2.
	if got := cv.HostOverlap[0][1]; got != 0.5 {
		t.Errorf("host overlap = %v, want 0.5", got)
	}
	if cv.HostOverlap[0][0] != 1 || cv.HostOverlap[1][1] != 1 {
		t.Errorf("diagonal != 1: %v", cv.HostOverlap)
	}
	// Server sets are fully disjoint across vantages.
	if got := cv.ServerOverlap[0][1]; got != 0 {
		t.Errorf("server overlap = %v, want 0", got)
	}
	if cv.Per["US"].TotalFlows != 7 || cv.Per["EU"].TotalFlows != 4 {
		t.Errorf("per-vantage flows = %d/%d", cv.Per["US"].TotalFlows, cv.Per["EU"].TotalFlows)
	}
	out := cv.Render()
	for _, want := range []string{"site.com", "host-org overlap", "server-IP overlap"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}
