package dnhunter

// Integration tests of the public facade: generate → run → analyze, plus
// the pcap path used by the CLI tools.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/flows"
	"repro/internal/netio"
)

// runTrace runs tr through a fresh Engine built from opts.
func runTrace(t *testing.T, tr *Trace, opts ...Option) *Result {
	t.Helper()
	res, err := NewEngine(opts...).RunTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeEndToEnd(t *testing.T) {
	tr := GenerateQuickTrace(21)
	res := runTrace(t, tr)
	if res.DB.Len() < 100 {
		t.Fatalf("flows = %d", res.DB.Len())
	}
	if res.Stats.LabeledFlows == 0 || res.Stats.DNSResponses == 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	cov := res.DB.Coverage(0)
	if cov.Ratio(flows.L7HTTP) < 0.8 {
		t.Fatalf("HTTP coverage = %v", cov.Ratio(flows.L7HTTP))
	}
}

func TestFacadeDeterministicAcrossRuns(t *testing.T) {
	a := runTrace(t, GenerateQuickTrace(5))
	b := runTrace(t, GenerateQuickTrace(5))
	if a.DB.Len() != b.DB.Len() || a.Stats.LabeledFlows != b.Stats.LabeledFlows {
		t.Fatalf("non-deterministic: %d/%d labeled %d/%d",
			a.DB.Len(), b.DB.Len(), a.Stats.LabeledFlows, b.Stats.LabeledFlows)
	}
}

func TestFacadeTagExtraction(t *testing.T) {
	tr := GenerateTrace("EU1-FTTH", 0.2, 11)
	res := runTrace(t, tr)
	tags := ExtractTags(res.DB, 25, 5)
	if len(tags) == 0 {
		t.Fatal("no tags on port 25")
	}
}

func TestFacadeSpatialAndContent(t *testing.T) {
	tr := GenerateTrace("US-3G", 0.3, 13)
	res := runTrace(t, tr)
	sp := SpatialDiscovery(res.DB, tr.OrgDB, "zynga.com")
	if sp.TotalFlows == 0 || len(sp.Hosts) == 0 {
		t.Fatalf("spatial = %+v", sp)
	}
	pipe := NewAnalyticsPipeline(NewTopContentQuery("amazon", tr.OrgDB, 5))
	pipe.ObserveDB(res.DB)
	if top, _ := pipe.Snapshot()[0].Result.([]ContentShare); len(top) == 0 {
		t.Fatal("no amazon-hosted content found")
	}
}

func TestFacadePcapRoundTrip(t *testing.T) {
	// Serialize a trace to pcap bytes, then run the Engine through the
	// pcap reader — the cmd/dnhunter path.
	tr := GenerateQuickTrace(31)
	var buf bytes.Buffer
	w := netio.NewWriter(&buf)
	for _, p := range tr.Packets {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := netio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	viaPcap, err := NewEngine().Run(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	// Same trace through the in-memory path must agree exactly.
	direct := runTrace(t, tr)
	if viaPcap.DB.Len() != direct.DB.Len() || viaPcap.Stats.LabeledFlows != direct.Stats.LabeledFlows {
		t.Fatalf("pcap path diverges: %d/%d flows, %d/%d labeled",
			viaPcap.DB.Len(), direct.DB.Len(), viaPcap.Stats.LabeledFlows, direct.Stats.LabeledFlows)
	}
}

func TestFacadePolicyBeforeFlow(t *testing.T) {
	tr := GenerateQuickTrace(17)
	policy := NewPolicy(Rule{Pattern: "zynga.com", Action: ActionBlock})
	var atSYN, total int
	runTrace(t, tr, WithSink(&FuncSink{Tag: func(e TagEvent) {
		if policy.Decide(e.Label) == ActionBlock {
			total++
			if e.SYN {
				atSYN++
			}
		}
	}}))
	if total == 0 {
		t.Skip("no zynga flows in this small trace")
	}
	if atSYN != total {
		t.Fatalf("only %d/%d blocked flows caught at the SYN", atSYN, total)
	}
}

// multiset renders flows to canonical strings with counts so databases can
// be compared regardless of record order.
func multiset(db *FlowDB) map[string]int {
	m := make(map[string]int, db.Len())
	for _, f := range db.All() {
		m[fmt.Sprintf("%+v", f)]++
	}
	return m
}

// TestEngineShardEquivalenceNamedScenarios is the facade-level guarantee:
// on the paper's named scenarios, an N-shard Engine produces the identical
// aggregate Stats and FlowDB contents as shard count 1.
func TestEngineShardEquivalenceNamedScenarios(t *testing.T) {
	for _, name := range []string{"EU1-FTTH", "EU2-ADSL"} {
		t.Run(name, func(t *testing.T) {
			tr := GenerateTrace(name, 0.15, 19)
			single, err := NewEngine().RunTrace(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			want := multiset(single.DB)
			for _, shards := range []int{2, 4} {
				res, err := NewEngine(WithShards(shards)).RunTrace(context.Background(), tr)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats != single.Stats {
					t.Errorf("shards=%d stats diverge:\n 1: %+v\n %d: %+v",
						shards, single.Stats, shards, res.Stats)
				}
				got := multiset(res.DB)
				if len(got) != len(want) || res.DB.Len() != single.DB.Len() {
					t.Fatalf("shards=%d: %d flows vs %d", shards, res.DB.Len(), single.DB.Len())
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("shards=%d: flow multiset diverges at %q (%d vs %d)",
							shards, k, n, got[k])
					}
				}
			}
		})
	}
}

// TestEngineFacadeOptions exercises the functional options together: a
// custom sink and a resolver override, on a sharded run (which also makes
// `go test -race ./...` exercise the concurrent pipeline through the
// facade).
func TestEngineFacadeOptions(t *testing.T) {
	tr := GenerateQuickTrace(21)
	var tags, dns int
	eng := NewEngine(
		WithShards(4),
		WithResolver(ResolverConfig{ClistSize: 1 << 16}),
		WithSink(&FuncSink{Tag: func(TagEvent) { tags++ }, DNS: func(DNSEvent) { dns++ }}),
	)
	if eng.Shards() != 4 {
		t.Fatalf("Shards() = %d", eng.Shards())
	}
	res, err := eng.RunTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(dns) != res.Stats.DNSResponses {
		t.Fatalf("sink saw %d DNS responses, stats count %d", dns, res.Stats.DNSResponses)
	}
	if uint64(tags) != res.Stats.Table.FlowsCreated {
		t.Fatalf("sink saw %d tags, table created %d flows", tags, res.Stats.Table.FlowsCreated)
	}
}

// TestEngineFacadeCancel: a cancelled context surfaces as an error, not a
// panic, at any shard count.
func TestEngineFacadeCancel(t *testing.T) {
	tr := GenerateQuickTrace(23)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shards := range []int{1, 4} {
		_, err := NewEngine(WithShards(shards)).RunTrace(ctx, tr)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: err = %v, want context.Canceled", shards, err)
		}
	}
}

func TestFirstFlowDelaysPlausible(t *testing.T) {
	tr := GenerateTrace("EU1-FTTH", 0.2, 19)
	res := runTrace(t, tr)
	n, fast := 0, 0
	for _, f := range res.DB.All() {
		if f.FirstAfterDNS {
			n++
			if f.DNSDelay <= time.Second {
				fast++
			}
		}
	}
	if n < 50 {
		t.Fatalf("only %d first-after-DNS flows", n)
	}
	if frac := float64(fast) / float64(n); frac < 0.6 {
		t.Fatalf("fast first-flow fraction = %v", frac)
	}
}

// TestFacadeMultiVantage drives the public multi-source API end to end:
// two synthetic vantages through one RunSources call, with a sink counting
// DNS responses per vantage.
func TestFacadeMultiVantage(t *testing.T) {
	trs := map[string]*Trace{
		"US":  GenerateQuickTrace(51),
		"EU1": GenerateQuickTrace(53),
	}
	dns := map[string]uint64{}
	eng := NewEngine(
		WithShards(2),
		WithSink(&FuncSink{DNS: func(ev DNSEvent) { dns[ev.Vantage]++ }}),
	)
	var sources []NamedSource
	for _, name := range []string{"US", "EU1"} {
		sources = append(sources, NamedSource{Name: name, Src: trs[name].Source(), Truth: trs[name].TruthFunc()})
	}
	multi, err := eng.RunSources(context.Background(), sources...)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Vantages) != 2 || multi.Vantages[0] != "US" || multi.Vantages[1] != "EU1" {
		t.Fatalf("vantages = %v", multi.Vantages)
	}
	for name, vr := range multi.PerVantage {
		if vr.DB.Len() == 0 || vr.Stats.LabeledFlows == 0 {
			t.Errorf("%s: empty partition", name)
		}
		if dns[name] != vr.Stats.DNSResponses {
			t.Errorf("%s: sink saw %d DNS responses vs %d counted", name, dns[name], vr.Stats.DNSResponses)
		}
		for _, f := range vr.DB.All() {
			if f.Vantage != name {
				t.Fatalf("%s: flow stamped %q", name, f.Vantage)
			}
		}
	}
	if multi.DB.Len() != multi.PerVantage["US"].DB.Len()+multi.PerVantage["EU1"].DB.Len() {
		t.Errorf("merged DB size mismatch")
	}
	// Misuse surfaces as errors, not panics.
	if _, err := NewEngine().RunSources(context.Background()); err == nil {
		t.Error("RunSources without sources should fail")
	}
}

// failingSource yields n packets of a trace, then a non-EOF read error.
type failingSource struct {
	src PacketSource
	n   int
	err error
}

func (s *failingSource) Next() (Packet, error) {
	if s.n == 0 {
		return Packet{}, s.err
	}
	s.n--
	return s.src.Next()
}

// TestFacadeRunSourcesKeepsSurvivors: a vantage whose source fails
// mid-read degrades RunSources to the surviving vantages. The facade
// returns the partial MultiResult next to the joined error, with the
// failure recorded under its vantage and its cause still matchable.
func TestFacadeRunSourcesKeepsSurvivors(t *testing.T) {
	cause := errors.New("capture device lost")
	ok, bad := GenerateQuickTrace(61), GenerateQuickTrace(63)
	multi, err := NewEngine(WithShards(2)).RunSources(context.Background(),
		NamedSource{Name: "ok", Src: ok.Source()},
		NamedSource{Name: "bad", Src: &failingSource{src: bad.Source(), n: len(bad.Packets) / 2, err: cause}},
	)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want it to wrap %v", err, cause)
	}
	if multi == nil {
		t.Fatal("RunSources dropped the surviving vantage: nil MultiResult")
	}
	if !errors.Is(multi.Errors["bad"], cause) {
		t.Errorf("Errors = %v, want an entry for \"bad\" wrapping the cause", multi.Errors)
	}
	vr := multi.PerVantage["ok"]
	if len(multi.PerVantage) != 1 || vr == nil || vr.DB.Len() == 0 {
		t.Fatalf("PerVantage = %v, want only the survivor", multi.PerVantage)
	}
	if multi.DB.Len() != vr.DB.Len() || multi.Stats != vr.Stats {
		t.Errorf("merged result (%d flows) is not the survivor's (%d flows)", multi.DB.Len(), vr.DB.Len())
	}
}
