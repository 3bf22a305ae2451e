package flowdb

import (
	"net/netip"
	"reflect"
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
	// A query is a scan: Load derives each labeled flow's SLD, and an
	// unlabeled flow has none.
	slds := map[string]int{}
	var f LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		slds[f.SLD]++
	}
	if want := map[string]int{"example.com": 2, "other.org": 1, "": 1}; !reflect.DeepEqual(slds, want) {
		t.Fatalf("flows per SLD = %v, want %v", slds, want)
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

	// The log keeps every flow, the duplicate pair included: distinct
	// sets are the analytics' to build.
	if db.Len() != 4 || !reflect.DeepEqual(db.At(3), db.At(0)) {
		t.Fatalf("Len = %d, At(3) = %+v, want 4 and a copy of At(0)", db.Len(), db.At(3))
	}
}

func TestGlobalEnumerations(t *testing.T) {
	db := New()
	db.Add(lf("a.x.com", "2.2.2.2", 80, flows.L7HTTP, 0))
	db.Add(lf("b.y.org", "1.1.1.1", 443, flows.L7TLS, 0))
	// All enumerates in insertion order, not sorted by server or label.
	all := db.All()
	if len(all) != 2 || all[0].Label != "a.x.com" || all[1].Key.ServerIP != netip.MustParseAddr("1.1.1.1") {
		t.Fatalf("All = %+v", all)
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
