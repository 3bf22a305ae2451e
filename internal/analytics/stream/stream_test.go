package stream_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"testing"

	"repro/internal/analytics"
	"repro/internal/analytics/stream"
	"repro/internal/flowdb"
	"repro/internal/flows"
)

// lcg is a tiny deterministic generator so tests don't depend on
// math/rand's sequence stability.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func TestSpaceSavingExactUnderCapacity(t *testing.T) {
	ss := stream.NewSpaceSaving(64)
	truth := map[string]uint64{}
	var r lcg = 7
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("k%02d", r.next()%32) // 32 keys < 64 counters
		ss.Observe(key)
		truth[key]++
	}
	top := ss.Top(0)
	if len(top) != len(truth) {
		t.Fatalf("tracked %d keys, want %d", len(top), len(truth))
	}
	for _, e := range top {
		if e.Err != 0 {
			t.Fatalf("key %s: err %d under capacity, want 0", e.Key, e.Err)
		}
		if e.Count != truth[e.Key] {
			t.Fatalf("key %s: count %d, want %d", e.Key, e.Count, truth[e.Key])
		}
	}
}

func TestSpaceSavingInvariants(t *testing.T) {
	const capacity = 8
	ss := stream.NewSpaceSaving(capacity)
	truth := map[string]uint64{}
	var n uint64
	var r lcg = 13
	for i := 0; i < 50_000; i++ {
		// Skewed universe of 50: key j drawn with weight ~ 1/(j+1).
		j := r.next() % 50
		j = j * (r.next() % 50) / 50 // bias toward small j
		key := fmt.Sprintf("k%02d", j)
		ss.Observe(key)
		truth[key]++
		n++
	}
	if got := ss.Observed(); got != n {
		t.Fatalf("observed %d, want %d", got, n)
	}
	bound := n / capacity
	for _, e := range ss.Top(0) {
		if e.Err > bound {
			t.Fatalf("key %s: err %d exceeds N/m = %d", e.Key, e.Err, bound)
		}
		tc := truth[e.Key]
		if tc > e.Count || tc < e.Count-e.Err {
			t.Fatalf("key %s: true count %d outside [%d, %d]", e.Key, tc, e.Count-e.Err, e.Count)
		}
	}
	tracked := map[string]bool{}
	for _, e := range ss.Top(0) {
		tracked[e.Key] = true
	}
	for key, tc := range truth {
		if tc > bound && !tracked[key] {
			t.Fatalf("heavy hitter %s (count %d > N/m %d) not tracked", key, tc, bound)
		}
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 50_000} {
		h := stream.NewHLL(stream.DefaultHLLPrecision)
		var r lcg = 99
		seen := map[uint64]bool{}
		for len(seen) < n {
			v := r.next()
			if !seen[v] {
				seen[v] = true
				h.Add64(v)
			}
			h.Add64(v) // duplicates must not move the estimate
		}
		est := h.Estimate()
		slack := 5 * h.StdError() * float64(n)
		if slack < 2 {
			slack = 2
		}
		if math.Abs(est-float64(n)) > slack {
			t.Fatalf("n=%d: estimate %.1f off by more than %.1f", n, est, slack)
		}
	}
}

// mkFlow builds a labeled flow with enough fields for every query.
func mkFlow(client, server byte, label, sld, vantage string, proto flows.L7Proto) flowdb.LabeledFlow {
	f := flowdb.LabeledFlow{
		Label:   label,
		SLD:     sld,
		Labeled: label != "",
		Vantage: vantage,
	}
	f.Key.ClientIP = netip.AddrFrom4([4]byte{10, 0, 0, client})
	f.Key.ServerIP = netip.AddrFrom4([4]byte{192, 0, 2, server})
	f.L7 = proto
	return f
}

// testFlows synthesizes a deterministic multi-vantage flow set.
func testFlows(n int, seed lcg) []flowdb.LabeledFlow {
	var out []flowdb.LabeledFlow
	r := seed
	vantages := []string{"us", "eu1", "eu2"}
	protos := []flows.L7Proto{flows.L7HTTP, flows.L7TLS, flows.L7Unknown}
	for i := 0; i < n; i++ {
		sld := fmt.Sprintf("site%d.com", r.next()%40)
		label := fmt.Sprintf("cdn%d.%s", r.next()%4, sld)
		if r.next()%5 == 0 {
			label, sld = "", "" // unlabeled flow
		}
		out = append(out, mkFlow(
			byte(r.next()%200), byte(r.next()%100),
			label, sld,
			vantages[r.next()%3],
			protos[r.next()%3],
		))
	}
	return out
}

func newStreamPipeline() *analytics.Pipeline {
	return analytics.NewPipeline(stream.StandardQueries(nil)...)
}

func newExactPipeline() *analytics.Pipeline {
	return analytics.NewPipeline(
		analytics.NewExactTopDomains(stream.DefaultTopK),
		analytics.NewExactTopSLDs(stream.DefaultTopK),
		analytics.NewExactTopOrgs(nil, stream.DefaultTopK),
		analytics.NewExactSLDFootprint(stream.DefaultTopK),
		analytics.NewExactCoverage(0),
	)
}

// TestStreamMatchesExactSmall checks that under the counter budgets the
// sketches are exact on a small universe (every key tracked, every HLL
// within bounds), so serve-mode defaults lose nothing on ordinary traces.
func TestStreamMatchesExactSmall(t *testing.T) {
	all := testFlows(5000, 7)
	sk, ex := newStreamPipeline(), newExactPipeline()
	for _, f := range all {
		sk.Observe(&f)
		ex.Observe(&f)
	}
	for _, name := range []string{"top_domains", "top_slds", "top_orgs"} {
		sq, _ := sk.Query(name)
		eq, _ := ex.Query(name)
		st := sq.Snapshot().(analytics.TopKResult)
		et := eq.Snapshot().(analytics.TopKResult)
		if st.Observed != et.Observed {
			t.Fatalf("%s: observed %d vs exact %d", name, st.Observed, et.Observed)
		}
		if len(st.Entries) != len(et.Entries) {
			t.Fatalf("%s: %d entries vs exact %d", name, len(st.Entries), len(et.Entries))
		}
		for i := range st.Entries {
			if st.Entries[i].Key != et.Entries[i].Key || st.Entries[i].Count != et.Entries[i].Count {
				t.Fatalf("%s[%d]: %+v vs exact %+v", name, i, st.Entries[i], et.Entries[i])
			}
		}
	}
	sq, _ := sk.Query("sld_server_footprint")
	eq, _ := ex.Query("sld_server_footprint")
	sc := sq.Snapshot().(analytics.CardinalityResult)
	ec := eq.Snapshot().(analytics.CardinalityResult)
	if sc.DroppedFlows != 0 {
		t.Fatalf("dropped %d flows under budget", sc.DroppedFlows)
	}
	if math.Abs(sc.Total-ec.Total) > 5*sc.StdError*ec.Total+2 {
		t.Fatalf("total footprint %v vs exact %v", sc.Total, ec.Total)
	}
	// Coverage is exact in both families.
	scov, _ := sk.Query("coverage")
	ecov, _ := ex.Query("coverage")
	sj, _ := json.Marshal(scov.Snapshot())
	ej, _ := json.Marshal(ecov.Snapshot())
	if string(sj) != string(ej) {
		t.Fatalf("coverage differs:\nstream %s\nexact  %s", sj, ej)
	}
}

// TestSLDFootprintBudget checks the tracking budget drops overflow keys
// into DroppedFlows instead of growing.
func TestSLDFootprintBudget(t *testing.T) {
	q := stream.NewSLDFootprint(5, 3, 10)
	for i := 0; i < 10; i++ {
		f := mkFlow(1, byte(i), fmt.Sprintf("a.s%d.com", i), fmt.Sprintf("s%d.com", i), "", flows.L7HTTP)
		q.Observe(&f)
	}
	res := q.Snapshot().(analytics.CardinalityResult)
	if res.TrackedKeys != 3 {
		t.Fatalf("tracked %d keys, want 3", res.TrackedKeys)
	}
	if res.DroppedFlows != 7 {
		t.Fatalf("dropped %d flows, want 7", res.DroppedFlows)
	}
	if res.Total < 8 { // union HLL still saw all 10 servers
		t.Fatalf("union estimate %v lost dropped keys' servers", res.Total)
	}
}

// TestPipelineObserveWindow checks the streaming entry point counts and
// feeds exactly the window's flows.
func TestPipelineObserveWindow(t *testing.T) {
	p := newStreamPipeline()
	db := flowdb.New()
	for _, f := range testFlows(100, 3) {
		db.Add(f)
	}
	p.ObserveWindow(flowdb.Window{Index: 0, DB: db})
	if p.Observed() != 100 {
		t.Fatalf("observed %d, want 100", p.Observed())
	}
}
