package synth

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestUniverseProvidersWellFormed(t *testing.T) {
	u := BuildUniverse(GeoEU1)
	if len(u.Providers) == 0 {
		t.Fatal("no providers")
	}
	for name, p := range u.Providers {
		if p.Name != name {
			t.Errorf("provider key %q != name %q", name, p.Name)
		}
		if p.Servers <= 0 {
			t.Errorf("%s: no servers", name)
		}
		addrs := u.ServerAddrs(name)
		if len(addrs) == 0 {
			t.Errorf("%s: empty pool", name)
		}
		seen := map[netip.Addr]struct{}{}
		for _, a := range addrs {
			if !p.Prefix.Contains(a) {
				t.Errorf("%s: server %v outside prefix %v", name, a, p.Prefix)
			}
			if _, dup := seen[a]; dup {
				t.Errorf("%s: duplicate server %v", name, a)
			}
			seen[a] = struct{}{}
		}
	}
}

// TestPoolHashMatchesGroupID: poolHash hashes the group ID the generator
// used to build as a string, for every catalog group and for port groups.
func TestPoolHashMatchesGroupID(t *testing.T) {
	id := func(hg *HostGroup, provider string) string {
		if len(hg.Names) > 0 {
			return provider + "/" + hg.Names[0].Pattern
		}
		return provider + fmt.Sprintf("/p%d", hg.Port)
	}
	groups := []*HostGroup{{Port: 0}, {Port: 7}, {Port: 443}, {Port: 65535}}
	for _, o := range BuildUniverse(GeoEU1).Orgs {
		for _, gs := range o.Groups {
			for i := range gs {
				groups = append(groups, &gs[i])
			}
		}
	}
	for _, hg := range groups {
		for _, p := range []string{"akamai", "level 3", ""} {
			if got, want := hg.poolHash(p), fnv32(id(hg, p)); got != want {
				t.Fatalf("poolHash(%q) of %q = %#x, want %#x", p, id(hg, p), got, want)
			}
		}
	}
	if got, want := fnvAdd(fnv32("www.example.com"), "*"), fnv32("www.example.com*"); got != want {
		t.Fatalf("fnvAdd does not continue fnv32: %#x, want %#x", got, want)
	}
}

func TestUniverseOrgsHaveGroups(t *testing.T) {
	for _, geo := range []Geo{GeoUS, GeoEU1, GeoEU2} {
		u := BuildUniverse(geo)
		for _, o := range u.Orgs {
			groups := o.Groups[geo]
			if len(groups) == 0 {
				// Orgs may define a single geo-independent layout.
				found := false
				for range o.Groups {
					found = true
				}
				if !found {
					t.Errorf("%s: no groups at all", o.SLD)
				}
				continue
			}
			for _, g := range groups {
				if _, ok := u.Providers[g.Provider]; !ok {
					t.Errorf("%s: unknown provider %q", o.SLD, g.Provider)
				}
				if g.Weight <= 0 {
					t.Errorf("%s: non-positive weight", o.SLD)
				}
			}
		}
	}
}

func TestServicesReferenceKnownProviders(t *testing.T) {
	u := BuildUniverse(GeoUS)
	for _, s := range u.Services {
		if _, ok := u.Providers[s.Provider]; !ok {
			t.Errorf("service port %d: unknown provider %q", s.Port, s.Provider)
		}
		if len(s.Names) == 0 {
			t.Errorf("service port %d: no names", s.Port)
		}
	}
}

func TestOrgDBCoversAllPools(t *testing.T) {
	u := BuildUniverse(GeoEU1)
	db := u.OrgDB()
	for name := range u.Providers {
		for _, a := range u.ServerAddrs(name)[:1] {
			org, ok := db.Lookup(a)
			if !ok || org != name {
				t.Errorf("orgdb lookup %v = %q, %v; want %q", a, org, ok, name)
			}
		}
	}
}

func TestNamePattern(t *testing.T) {
	p := NamePattern{Pattern: "media#", N: 3}
	if p.Variants() != 3 || p.Expand(0) != "media1" || p.Expand(2) != "media3" {
		t.Fatalf("pattern expansion: %q %q", p.Expand(0), p.Expand(2))
	}
	lit := NamePattern{Pattern: "www"}
	if lit.Variants() != 1 || lit.Expand(0) != "www" {
		t.Fatal("literal pattern")
	}
}

func TestPTRPolicies(t *testing.T) {
	u := BuildUniverse(GeoEU1)
	addr := netip.MustParseAddr("23.33.1.2")
	// akamai: provider-internal name, totally different from the FQDN.
	name, ok := u.PTRName("akamai", addr, "static.fbcdn.net")
	if !ok || name == "static.fbcdn.net" || stats.SLD(name) == "fbcdn.net" {
		t.Fatalf("akamai PTR = %q, %v", name, ok)
	}
	// linkedin self-hosting: exact.
	name, ok = u.PTRName("linkedin", addr, "www.linkedin.com")
	if !ok || name != "www.linkedin.com" {
		t.Fatalf("linkedin PTR = %q, %v", name, ok)
	}
	// leaseweb: same SLD, different host.
	name, ok = u.PTRName("leaseweb", addr, "www.leasehost-a.net")
	if !ok || name == "www.leasehost-a.net" || stats.SLD(name) != "leasehost-a.net" {
		t.Fatalf("leaseweb PTR = %q, %v", name, ok)
	}
	// meta: no PTR.
	if _, ok := u.PTRName("meta", addr, "x.example.com"); ok {
		t.Fatal("meta should publish no PTR")
	}
}

func TestCertPolicies(t *testing.T) {
	u := BuildUniverse(GeoEU1)
	if cn, ok := u.CertName("linkedin", "www.linkedin.com"); !ok || cn != "www.linkedin.com" {
		t.Fatalf("exact cert = %q, %v", cn, ok)
	}
	if cn, ok := u.CertName("google", "mail.google.com"); !ok || cn != "*.google.com" {
		t.Fatalf("wildcard cert = %q, %v", cn, ok)
	}
	if cn, ok := u.CertName("akamai", "static.zynga.com"); !ok || cn == "static.zynga.com" || cn == "*.zynga.com" {
		t.Fatalf("provider cert = %q, %v", cn, ok)
	}
	if _, ok := u.CertName("meta", "x.example.com"); ok {
		t.Fatal("meta should send no certificate")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	sc := QuickScenario(7)
	a := Generate(sc)
	b := Generate(sc)
	if len(a.Packets) != len(b.Packets) || a.Flows != b.Flows {
		t.Fatalf("non-deterministic: %d/%d pkts, %d/%d flows",
			len(a.Packets), len(b.Packets), a.Flows, b.Flows)
	}
	for i := range a.Packets {
		if a.Packets[i].Timestamp != b.Packets[i].Timestamp ||
			string(a.Packets[i].Data) != string(b.Packets[i].Data) {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(QuickScenario(1))
	b := Generate(QuickScenario(2))
	if len(a.Packets) == len(b.Packets) && a.Flows == b.Flows && a.DNSResponses == b.DNSResponses {
		// Extremely unlikely to match on all three if seeds matter.
		t.Fatal("different seeds produced identical trace summary")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	tr := Generate(QuickScenario(42))
	if tr.Flows < 100 {
		t.Fatalf("too few flows: %d", tr.Flows)
	}
	if tr.DNSResponses < 50 {
		t.Fatalf("too few DNS responses: %d", tr.DNSResponses)
	}
	if len(tr.Packets) < tr.Flows*4 {
		t.Fatalf("too few packets: %d for %d flows", len(tr.Packets), tr.Flows)
	}
	// Timestamps sorted and within duration.
	for i := 1; i < len(tr.Packets); i++ {
		if tr.Packets[i].Timestamp < tr.Packets[i-1].Timestamp {
			t.Fatal("packets unsorted")
		}
	}
	last := tr.Packets[len(tr.Packets)-1].Timestamp
	if last > tr.Scenario.Duration {
		t.Fatalf("packet beyond duration: %v", last)
	}
	if len(tr.Truth) == 0 || len(tr.PTRZone) == 0 {
		t.Fatal("sidecars missing")
	}
}

func TestGeneratePTRZoneMixture(t *testing.T) {
	tr := Generate(QuickScenario(42))
	var none, some int
	for _, name := range tr.PTRZone {
		if name == "" {
			none++
		} else {
			some++
		}
	}
	if some == 0 {
		t.Fatal("no PTR names at all")
	}
	if none == 0 {
		t.Fatal("every server has a PTR; Table 3's no-answer class would be empty")
	}
}

func TestNamedScenariosConstruct(t *testing.T) {
	for _, name := range ScenarioNames {
		sc := NamedScenario(name, 0.05, 1)
		if sc.Name != name || sc.Clients < 4 || sc.Duration <= 0 {
			t.Fatalf("scenario %s malformed: %+v", name, sc)
		}
	}
}

func TestNamedScenarioUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NamedScenario("nope", 1, 1)
}

func TestGenerateEventsShape(t *testing.T) {
	sc := LiveScenario{Days: 2, Clients: 20, SessionsPerDay: 2000, Geo: GeoEU1, Seed: 5}
	tr := GenerateEvents(sc)
	if len(tr.Flows) < 500 {
		t.Fatalf("too few flows: %d", len(tr.Flows))
	}
	if len(tr.DNS) == 0 {
		t.Fatal("no DNS events")
	}
	for i := 1; i < len(tr.Flows); i++ {
		if tr.Flows[i].Start < tr.Flows[i-1].Start {
			t.Fatal("flows unsorted")
		}
	}
	// Every flow labeled with ground truth.
	for _, f := range tr.Flows[:50] {
		if !f.Labeled || f.Label == "" {
			t.Fatalf("event-mode flow unlabeled: %+v", f)
		}
	}
	if len(tr.TrackerIDs) == 0 {
		t.Fatal("no appspot trackers observed")
	}
}

func TestGenerateEventsDeterministic(t *testing.T) {
	sc := LiveScenario{Days: 1, Clients: 10, SessionsPerDay: 1000, Geo: GeoEU1, Seed: 9}
	a := GenerateEvents(sc)
	b := GenerateEvents(sc)
	if len(a.Flows) != len(b.Flows) || len(a.DNS) != len(b.DNS) {
		t.Fatalf("non-deterministic event mode: %d/%d flows", len(a.Flows), len(b.Flows))
	}
}

func TestTailNamesGrow(t *testing.T) {
	// blogspot-style tails must keep minting new FQDNs.
	sc := QuickScenario(3)
	sc.Duration = time.Hour
	tr := Generate(sc)
	tail := map[string]struct{}{}
	for _, fqdn := range tr.Truth {
		if stats.SLD(fqdn) == "blogspot.com" && fqdn != "www.blogspot.com" {
			tail[fqdn] = struct{}{}
		}
	}
	if len(tail) < 3 {
		t.Fatalf("tail FQDNs = %d, want growth", len(tail))
	}
}

func TestTriVantageScenarios(t *testing.T) {
	scs := TriVantageScenarios(0.5, 9)
	if len(scs) != 3 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	wantName := []string{"US", "EU1", "EU2"}
	wantGeo := []Geo{GeoUS, GeoEU1, GeoEU2}
	seeds := map[uint64]bool{}
	for i, sc := range scs {
		if sc.Name != wantName[i] {
			t.Errorf("scenario %d name = %q, want %q", i, sc.Name, wantName[i])
		}
		if sc.Geo != wantGeo[i] {
			t.Errorf("%s geo = %q, want %q", sc.Name, sc.Geo, wantGeo[i])
		}
		if sc.Duration != 3*time.Hour || sc.StartHour != 17 {
			t.Errorf("%s window = %v @ %vh, want aligned 3h @ 17h", sc.Name, sc.Duration, sc.StartHour)
		}
		if seeds[sc.Seed] {
			t.Errorf("%s reuses seed %d", sc.Name, sc.Seed)
		}
		seeds[sc.Seed] = true
	}
	// Reproducible from (scale, seed): regenerating yields identical traces.
	again := TriVantageScenarios(0.5, 9)
	for i := range scs {
		a, b := Generate(scs[i]), Generate(again[i])
		if len(a.Packets) != len(b.Packets) || a.Flows != b.Flows || a.DNSResponses != b.DNSResponses {
			t.Errorf("%s not reproducible: %d/%d packets", scs[i].Name, len(a.Packets), len(b.Packets))
		}
	}
}

// BenchmarkGenerate synthesizes the batch benchmark's two trace shapes,
// the representative EU1-FTTH mix and the DNS-heavy DNS-CHURN mix, at
// scale 2.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{NameEU1FTTH, NameDNSChurn} {
		b.Run(name, func(b *testing.B) {
			sc := NamedScenario(name, 2, 1)
			b.ReportAllocs()
			for b.Loop() {
				Generate(sc)
			}
		})
	}
}
