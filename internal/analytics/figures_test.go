package analytics

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/synth"
)

// liveSpan is the length of the live window the tests below run.
const liveSpan = 3 * 24 * time.Hour

// liveDB runs three days of the live window through the engine and
// returns its labeled flows.
func liveDB(t *testing.T) *flowdb.DB {
	t.Helper()
	sc := synth.NamedScenario(synth.NameLive, 0.2, 11)
	sc.Duration = liveSpan
	res, err := core.NewEngine(core.EngineConfig{}).Run(context.Background(), synth.Generate(sc).Source())
	if err != nil {
		t.Fatal(err)
	}
	return res.DB
}

func TestBirthProcessShapes(t *testing.T) {
	bs := BirthProcess(liveDB(t), liveSpan, 4*time.Hour)
	n := len(bs.FQDN)
	if n < 10 {
		t.Fatalf("bins = %d", n)
	}
	// Cumulative curves must be non-decreasing.
	for i := 1; i < n; i++ {
		if bs.FQDN[i] < bs.FQDN[i-1] || bs.SLD[i] < bs.SLD[i-1] || bs.Server[i] < bs.Server[i-1] {
			t.Fatal("birth curves not monotone")
		}
	}
	if bs.FQDN[n-1] == 0 || bs.Server[n-1] == 0 {
		t.Fatal("empty curves")
	}
	// The paper's claim: FQDNs keep growing while SLDs saturate. The
	// late/early growth ratio of FQDNs must exceed that of SLDs.
	fq := bs.GrowthRatio(bs.FQDN)
	sld := bs.GrowthRatio(bs.SLD)
	if fq <= sld {
		t.Fatalf("FQDN growth ratio %v not above SLD %v", fq, sld)
	}
	// And FQDN count must dwarf the SLD count.
	if bs.FQDN[n-1] < 5*bs.SLD[n-1] {
		t.Fatalf("FQDN total %d vs SLD %d", bs.FQDN[n-1], bs.SLD[n-1])
	}
}

func TestAppspotTracking(t *testing.T) {
	rep := AppspotTracking(liveDB(t), 4*time.Hour)
	if rep.TrackerServices == 0 || rep.GeneralServices == 0 {
		t.Fatalf("services: %+v", rep)
	}
	// Table 8's shape: trackers are few but flow-heavy; general apps move
	// far more server-to-client bytes per flow.
	if rep.GeneralServices < rep.TrackerServices {
		t.Fatalf("general (%d) should outnumber trackers (%d)", rep.GeneralServices, rep.TrackerServices)
	}
	if rep.TrackerFlows < rep.GeneralFlows {
		t.Fatalf("tracker flows (%d) should exceed general flows (%d)", rep.TrackerFlows, rep.GeneralFlows)
	}
	perFlowTracker := float64(rep.TrackerS2C) / float64(rep.TrackerFlows)
	perFlowGeneral := float64(rep.GeneralS2C) / float64(rep.GeneralFlows)
	if perFlowGeneral < 4*perFlowTracker {
		t.Fatalf("S2C per flow: general %v vs tracker %v", perFlowGeneral, perFlowTracker)
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("no tracker timelines")
	}
	// Persistent trackers (ids assigned from first-seen) should span many
	// bins.
	max := 0
	for _, bins := range rep.Timeline {
		if len(bins) > max {
			max = len(bins)
		}
	}
	if max < 5 {
		t.Fatalf("most active tracker spans only %d bins", max)
	}
}

// TestLiveFiguresIgnoreRowOrder: rows filed out of Start order still give
// each entity its earliest flow, so births land in the earliest bin and
// tracker IDs follow first-seen order.
func TestLiveFiguresIgnoreRowOrder(t *testing.T) {
	db := flowdb.New()
	db.Add(mkFlow("10.0.0.1", "173.194.1.1", 80, "bt-tracker-02.appspot.com", flows.L7HTTP, 5*time.Hour))
	db.Add(mkFlow("10.0.0.1", "173.194.1.2", 80, "bt-tracker-01.appspot.com", flows.L7HTTP, 3*time.Hour))
	db.Add(mkFlow("10.0.0.2", "173.194.1.1", 80, "bt-tracker-02.appspot.com", flows.L7HTTP, time.Hour))
	db.Add(mkFlow("10.0.0.2", "173.194.1.3", 80, "webapp-001.appspot.com", flows.L7HTTP, 0))
	rep := AppspotTracking(db, 2*time.Hour)
	if want := map[int][]int{1: {0, 2}, 2: {1}}; !reflect.DeepEqual(rep.Timeline, want) {
		t.Errorf("timeline %v, want %v", rep.Timeline, want)
	}
	if rep.TrackerServices != 2 || rep.TrackerFlows != 3 || rep.GeneralServices != 1 || rep.GeneralFlows != 1 {
		t.Errorf("table 8 rows: %+v", rep)
	}
	bs := BirthProcess(db, 6*time.Hour, 2*time.Hour)
	if want := []int{2, 3, 3, 3}; !reflect.DeepEqual(bs.FQDN, want) || !reflect.DeepEqual(bs.Server, want) {
		t.Errorf("births: FQDN %v, server %v, want %v", bs.FQDN, bs.Server, want)
	}
}

func TestBirthProcessEmptyTrace(t *testing.T) {
	bs := BirthProcess(flowdb.New(), 24*time.Hour, time.Hour)
	if len(bs.FQDN) == 0 || bs.FQDN[len(bs.FQDN)-1] != 0 {
		t.Fatalf("empty trace curves: %v", bs.FQDN)
	}
}

func TestGrowthRatioDegenerate(t *testing.T) {
	bs := &BirthSeries{}
	if bs.GrowthRatio([]int{1, 2}) != 0 {
		t.Fatal("short series should yield 0")
	}
	if bs.GrowthRatio([]int{5, 5, 5, 5, 5, 5}) != 0 {
		t.Fatal("flat series should yield 0")
	}
}
