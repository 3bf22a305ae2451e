package flowdb

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/flows"
	"repro/internal/layers"
)

func lf(label string, server string, port uint16, l7 flows.L7Proto, start time.Duration) LabeledFlow {
	return LabeledFlow{
		Record: flows.Record{
			Key: flows.Key{
				ClientIP:   netip.MustParseAddr("10.0.0.1"),
				ServerIP:   netip.MustParseAddr(server),
				ClientPort: 40000, ServerPort: port,
				Proto: layers.IPProtocolTCP,
			},
			Start: start, End: start + time.Second,
			L7: l7,
		},
		Label:   label,
		Labeled: label != "",
	}
}

func TestAddAndIndexes(t *testing.T) {
	db := New()
	db.Add(lf("www.example.com", "1.1.1.1", 80, flows.L7HTTP, 0))
	db.Add(lf("mail.example.com", "1.1.1.2", 443, flows.L7TLS, time.Second))
	db.Add(lf("www.other.org", "1.1.1.1", 80, flows.L7HTTP, 2*time.Second))
	db.Add(lf("", "9.9.9.9", 6881, flows.L7P2P, 3*time.Second))

	if db.Len() != 4 {
		t.Fatalf("Len = %d", db.Len())
	}
	if got := db.ByFQDN("www.example.com"); len(got) != 1 || got[0].Label != "www.example.com" {
		t.Fatalf("ByFQDN = %v", got)
	}
	if got := db.BySLD("example.com"); len(got) != 2 {
		t.Fatalf("BySLD = %d flows", len(got))
	}
	if got := db.ByServer(netip.MustParseAddr("1.1.1.1")); len(got) != 2 {
		t.Fatalf("ByServer = %d flows", len(got))
	}
	if got := db.ByPort(80); len(got) != 2 {
		t.Fatalf("ByPort = %d flows", len(got))
	}
	// Unlabeled flows appear in server/port indexes but not name indexes.
	if got := db.ByPort(6881); len(got) != 1 || got[0].Labeled {
		t.Fatalf("unlabeled flow: %v", got)
	}
	if got := db.ByFQDN(""); len(got) != 0 {
		t.Fatalf("empty-label index should be empty: %v", got)
	}
}

func TestSLDComputedOnAdd(t *testing.T) {
	db := New()
	db.Add(lf("smtp2.mail.google.com", "1.2.3.4", 25, flows.L7Unknown, 0))
	if got := db.At(0).SLD; got != "google.com" {
		t.Fatalf("SLD = %q", got)
	}
}

func TestDistinctSetters(t *testing.T) {
	db := New()
	db.Add(lf("a.x.com", "1.1.1.1", 80, flows.L7HTTP, 0))
	db.Add(lf("a.x.com", "1.1.1.2", 80, flows.L7HTTP, 0))
	db.Add(lf("b.x.com", "1.1.1.1", 80, flows.L7HTTP, 0))
	db.Add(lf("a.x.com", "1.1.1.1", 80, flows.L7HTTP, 0)) // duplicate pair

	servers := db.ServersOfFQDN("a.x.com")
	if len(servers) != 2 {
		t.Fatalf("ServersOfFQDN = %v", servers)
	}
	if servers[0].Compare(servers[1]) >= 0 {
		t.Fatal("servers not sorted")
	}
	if got := db.FQDNsOfSLD("x.com"); len(got) != 2 || got[0] != "a.x.com" {
		t.Fatalf("FQDNsOfSLD = %v", got)
	}
}

func TestGlobalEnumerations(t *testing.T) {
	db := New()
	db.Add(lf("a.x.com", "2.2.2.2", 80, flows.L7HTTP, 0))
	db.Add(lf("b.y.org", "1.1.1.1", 443, flows.L7TLS, 0))
	if got := db.Servers(); len(got) != 2 || got[0].Compare(got[1]) >= 0 {
		t.Fatalf("Servers = %v", got)
	}
	if got := db.FQDNs(); len(got) != 2 || got[0] != "a.x.com" {
		t.Fatalf("FQDNs = %v", got)
	}
}

func TestCoverage(t *testing.T) {
	db := New()
	warm := 5 * time.Minute
	// Two labeled HTTP after warmup, one unlabeled HTTP after warmup,
	// one HTTP before warmup (excluded), one unlabeled P2P.
	db.Add(lf("a.x.com", "1.1.1.1", 80, flows.L7HTTP, warm+time.Second))
	db.Add(lf("b.x.com", "1.1.1.2", 80, flows.L7HTTP, warm+2*time.Second))
	db.Add(lf("", "1.1.1.3", 80, flows.L7HTTP, warm+3*time.Second))
	db.Add(lf("c.x.com", "1.1.1.4", 80, flows.L7HTTP, time.Second))
	db.Add(lf("", "9.9.9.9", 6881, flows.L7P2P, warm+time.Second))

	cov := db.Coverage(warm)
	if cov.Total[flows.L7HTTP] != 3 || cov.Labeled[flows.L7HTTP] != 2 {
		t.Fatalf("coverage = %+v", cov)
	}
	if r := cov.Ratio(flows.L7HTTP); r < 0.66 || r > 0.67 {
		t.Fatalf("ratio = %v", r)
	}
	if cov.Ratio(flows.L7P2P) != 0 {
		t.Fatalf("P2P ratio = %v", cov.Ratio(flows.L7P2P))
	}
	if cov.Ratio(flows.L7TLS) != 0 {
		t.Fatal("unseen protocol ratio should be 0")
	}
}

func TestAtAndAll(t *testing.T) {
	db := New()
	db.Add(lf("a.x.com", "1.1.1.1", 80, flows.L7HTTP, 0))
	if db.At(0).Label != "a.x.com" || len(db.All()) != 1 {
		t.Fatal("At/All broken")
	}
}

// TestConcurrentQueriesAfterIngest: once writing has stopped, queries may
// run concurrently — the first ones race to build the lazy indexes, which
// must be serialized internally (run under -race).
func TestConcurrentQueriesAfterIngest(t *testing.T) {
	db := New()
	for i := 0; i < 500; i++ {
		db.Add(LabeledFlow{
			Record: flows.Record{Key: flows.Key{
				ClientIP:   netip.MustParseAddr("10.0.0.1"),
				ServerIP:   netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}),
				ServerPort: uint16(80 + i%3),
			}},
			Label: "cdn.example.com", Labeled: true, Vantage: "EU1",
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if got := len(db.ByFQDN("cdn.example.com")); got != 500 {
					t.Errorf("ByFQDN = %d", got)
				}
			case 1:
				if got := len(db.ByPort(80)); got == 0 {
					t.Error("ByPort empty")
				}
			case 2:
				if got := len(db.ServersOfFQDN("cdn.example.com")); got != 256 {
					t.Errorf("ServersOfFQDN = %d", got)
				}
			case 3:
				if got := len(db.Servers()); got != 256 {
					t.Errorf("Servers = %d", got)
				}
			}
		}(g)
	}
	wg.Wait()
}

// ByFQDN returns flows labeled exactly fqdn.
func (db *DB) ByFQDN(fqdn string) []*LabeledFlow { db.index(); return db.gather(db.byFQDN[fqdn]) }
