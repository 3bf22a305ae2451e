package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/analytics"
	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/synth"
)

// testSuite shares one scaled-down suite across tests (generation is the
// expensive part).
var shared = NewSuite(0.5, 7)

func init() { shared.LiveDays = 4 }

func TestTable1Renders(t *testing.T) {
	out := shared.Table1()
	for _, name := range synth.ScenarioNames {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s:\n%s", name, out)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	// Paper shape: HTTP/TLS well above 80%, P2P near zero, US-3G lowest.
	us := shared.Table2Data(synth.NameUS3G)
	eu := shared.Table2Data(synth.NameEU1ADSL1)
	if eu[flows.L7HTTP] < 0.85 || eu[flows.L7TLS] < 0.80 {
		t.Fatalf("EU hit ratios too low: %v", eu)
	}
	if us[flows.L7HTTP] >= eu[flows.L7HTTP] {
		t.Fatalf("US-3G HTTP (%v) should be below EU (%v)", us[flows.L7HTTP], eu[flows.L7HTTP])
	}
	if us[flows.L7P2P] > 0.15 || eu[flows.L7P2P] > 0.05 {
		t.Fatalf("P2P should be near zero: us=%v eu=%v", us[flows.L7P2P], eu[flows.L7P2P])
	}
}

func TestTable3Shape(t *testing.T) {
	// Paper: exact 9%, same-SLD 36%, different 26%, none 29% — reverse
	// lookup must disagree with DN-Hunter most of the time, with a
	// substantial no-answer share.
	_, res := shared.Table3()
	if res.Total < 50 {
		t.Fatalf("sample too small: %d", res.Total)
	}
	exact := res.Fraction(analytics.MatchExact)
	none := res.Fraction(analytics.MatchNone)
	diff := res.Fraction(analytics.MatchDifferent)
	sld := res.Fraction(analytics.MatchSLD)
	if exact > 0.5 {
		t.Fatalf("reverse lookup too accurate: exact=%v", exact)
	}
	if none < 0.05 {
		t.Fatalf("no-answer share too small: %v", none)
	}
	if diff+sld < 0.2 {
		t.Fatalf("mismatch mass too small: diff=%v sld=%v", diff, sld)
	}
}

func TestTable4Shape(t *testing.T) {
	// Paper: exact 18%, generic 19%, different 40%, none 23% — certificate
	// inspection resolves a minority of flows exactly.
	_, res := shared.Table4()
	if res.Total < 100 {
		t.Fatalf("too few TLS flows: %d", res.Total)
	}
	exact := res.Fraction(analytics.MatchExact)
	generic := res.Fraction(analytics.MatchGeneric)
	none := res.Fraction(analytics.MatchNone)
	diff := res.Fraction(analytics.MatchDifferent)
	if exact > 0.5 {
		t.Fatalf("certificates too precise: exact=%v", exact)
	}
	if generic < 0.05 {
		t.Fatalf("generic share too small: %v", generic)
	}
	if none < 0.05 {
		t.Fatalf("no-certificate share too small: %v", none)
	}
	if diff < 0.05 {
		t.Fatalf("different share too small: %v", diff)
	}
}

func TestTable5GeographyDiffers(t *testing.T) {
	us, eu := shared.Table5Data()
	if len(us) < 5 || len(eu) < 5 {
		t.Fatalf("rankings too short: %d/%d", len(us), len(eu))
	}
	// cloudfront leads both (paper rank 1 in both geos).
	if us[0].Name != "cloudfront.net" || eu[0].Name != "cloudfront.net" {
		t.Fatalf("top domains: us=%s eu=%s", us[0].Name, eu[0].Name)
	}
	// playfish is an EU phenomenon (paper rank 2 EU, absent US top-10).
	rank := func(list []analytics.ContentShare, name string) int {
		for i, c := range list {
			if c.Name == name {
				return i
			}
		}
		return -1
	}
	euPlay := rank(eu, "playfish.com")
	usPlay := rank(us, "playfish.com")
	if euPlay == -1 {
		t.Fatalf("playfish missing from EU ranking: %+v", eu)
	}
	if usPlay != -1 && usPlay <= euPlay {
		t.Fatalf("playfish should rank higher in EU (eu=%d us=%d)", euPlay, usPlay)
	}
	// The two rankings must differ somewhere in the top 5.
	same := true
	for i := 0; i < 5; i++ {
		if us[i].Name != eu[i].Name {
			same = false
			break
		}
	}
	if same {
		t.Fatal("US and EU rankings identical; geography effect missing")
	}
}

func TestTable6TagsRecoverServices(t *testing.T) {
	run := shared.Run(synth.NameEU1FTTH)
	// Port 25 must surface smtp-ish tokens.
	tags := analytics.ExtractTags(run.DB, 25, 5)
	if len(tags) == 0 {
		t.Fatal("no tags on port 25")
	}
	found := false
	for _, tg := range tags {
		if tg.Token == "smtp" || tg.Token == "smtpN" || tg.Token == "mail" {
			found = true
		}
	}
	if !found {
		t.Fatalf("port 25 tags miss smtp/mail: %v", tags)
	}
	// Port 110: pop tokens.
	tags = analytics.ExtractTags(run.DB, 110, 5)
	found = false
	for _, tg := range tags {
		if strings.HasPrefix(tg.Token, "pop") {
			found = true
		}
	}
	if !found {
		t.Fatalf("port 110 tags miss pop: %v", tags)
	}
}

func TestTable7UnknownPortRecovery(t *testing.T) {
	run := shared.Run(synth.NameUS3G)
	// Port 1337: the paper's exodus/genesis discovery.
	tags := analytics.ExtractTags(run.DB, 1337, 5)
	toks := map[string]bool{}
	for _, tg := range tags {
		toks[tg.Token] = true
	}
	if !toks["exodus"] && !toks["genesis"] {
		t.Fatalf("port 1337 tags: %v", tags)
	}
	// Port 5228: mtalk.
	tags = analytics.ExtractTags(run.DB, 5228, 3)
	if len(tags) == 0 || tags[0].Token != "mtalk" {
		t.Fatalf("port 5228 tags: %v", tags)
	}
}

func TestTable8Shape(t *testing.T) {
	_, rep := shared.Table8()
	if rep.TrackerFlows <= rep.GeneralFlows {
		t.Fatalf("tracker flows (%d) should dominate (general %d)", rep.TrackerFlows, rep.GeneralFlows)
	}
	if rep.GeneralServices <= rep.TrackerServices {
		t.Fatalf("general services (%d) should outnumber trackers (%d)", rep.GeneralServices, rep.TrackerServices)
	}
	if rep.GeneralS2C <= rep.TrackerS2C {
		t.Fatalf("general S2C bytes should dominate: %d vs %d", rep.GeneralS2C, rep.TrackerS2C)
	}
}

func TestTable9Shape(t *testing.T) {
	// Paper: 46–50% fixed-line, 30% mobile.
	usFrac := shared.Run(synth.NameUS3G).Stats.UselessDNSFraction()
	euFrac := shared.Run(synth.NameEU1ADSL1).Stats.UselessDNSFraction()
	if euFrac < 0.30 || euFrac > 0.65 {
		t.Fatalf("EU useless fraction out of band: %v", euFrac)
	}
	if usFrac >= euFrac {
		t.Fatalf("mobile useless fraction (%v) should be below fixed-line (%v)", usFrac, euFrac)
	}
}

func TestFigure3Shape(t *testing.T) {
	_, fqdnSingle, ipSingle := shared.Figure3()
	// Paper: 82% of FQDNs on one IP, 73% of IPs with one FQDN; heavy tail
	// beyond. Accept broad bands.
	if fqdnSingle < 0.4 || fqdnSingle > 0.98 {
		t.Fatalf("fqdn singleton share = %v", fqdnSingle)
	}
	if ipSingle < 0.3 || ipSingle > 0.98 {
		t.Fatalf("ip singleton share = %v", ipSingle)
	}
}

func TestFigure4Diurnal(t *testing.T) {
	_, series := shared.Figure4()
	yt := series["youtube.com"]
	if len(yt) < 100 {
		t.Fatalf("series too short: %d bins", len(yt))
	}
	// The 17:00–20:30 policy window (trace starts at 00:00) must average
	// clearly above the early morning: the paper's step (scaled-down
	// traffic is sampling-limited, so compare window means, not the
	// argmax).
	windowMean := func(fromH, toH float64) float64 {
		s, n := 0.0, 0
		for i := int(fromH * 6); i < int(toH*6) && i < len(yt); i++ {
			s += float64(yt[i])
			n++
		}
		return s / float64(n)
	}
	evening := windowMean(17, 20.5)
	morning := windowMean(3, 9)
	if evening <= morning*1.2 {
		t.Fatalf("youtube step missing: evening=%v morning=%v", evening, morning)
	}
	// fbcdn must use far more servers than blogspot (paper: 600 vs <20).
	maxOf := func(xs []int) int {
		m := 0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(series["fbcdn.net"]) <= 2*maxOf(series["blogspot.com"]) {
		t.Fatalf("fbcdn pool (%d) should dwarf blogspot (%d)",
			maxOf(series["fbcdn.net"]), maxOf(series["blogspot.com"]))
	}
}

func TestFigure5Shape(t *testing.T) {
	_, series := shared.Figure5()
	maxOf := func(xs []int) int {
		m := 0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	// Amazon and akamai serve many FQDNs; edgecast few (paper: >600 vs <20).
	if maxOf(series["amazon"]) <= maxOf(series["edgecast"]) {
		t.Fatalf("amazon (%d) should dwarf edgecast (%d)", maxOf(series["amazon"]), maxOf(series["edgecast"]))
	}
}

func TestFigure6Shape(t *testing.T) {
	_, bs := shared.Figure6()
	n := len(bs.FQDN)
	if bs.FQDN[n-1] <= bs.SLD[n-1] {
		t.Fatal("FQDN count must exceed SLD count")
	}
	if bs.GrowthRatio(bs.FQDN) <= bs.GrowthRatio(bs.Server) {
		t.Fatalf("FQDN late growth (%v) should exceed server late growth (%v)",
			bs.GrowthRatio(bs.FQDN), bs.GrowthRatio(bs.Server))
	}
}

func TestFigure7LinkedinTree(t *testing.T) {
	_, tree := shared.Figure7()
	if tree.Flows < 12 {
		t.Fatalf("too few linkedin flows: %d", tree.Flows)
	}
	// mediaN must exist and be served by akamai; the tree must span >= 3
	// hosting orgs total (paper: linkedin, akamai, edgecast, cdnetworks).
	var mediaN *analytics.TreeNode
	for _, c := range tree.Children {
		if c.Token == "mediaN" {
			mediaN = c
		}
	}
	if mediaN == nil {
		t.Fatalf("mediaN missing: %v", childTokens(tree))
	}
	if mediaN.DominantOrg() != "akamai" {
		t.Fatalf("mediaN org = %s", mediaN.DominantOrg())
	}
	if len(tree.Orgs) < 3 {
		t.Fatalf("linkedin hosting orgs = %v", tree.Orgs)
	}
}

func TestFigure8ZyngaTree(t *testing.T) {
	_, tree := shared.Figure8()
	if tree.DominantOrg() != "amazon" {
		t.Fatalf("zynga dominant host = %s (paper: Amazon with 86%% of flows)", tree.DominantOrg())
	}
	if len(tree.Orgs) < 3 {
		t.Fatalf("zynga hosting orgs = %v", tree.Orgs)
	}
}

func TestFigure9Shape(t *testing.T) {
	_, maps := shared.Figure9()
	fb := maps["facebook.com"]
	if fb.Rows[synth.NameEU1ADSL1]["SELF"] < 0.5 {
		t.Fatalf("facebook should be mostly self-hosted: %v", fb.Rows)
	}
	// Twitter leans on akamai more in EU than in US.
	tw := maps["twitter.com"]
	if tw.Rows[synth.NameEU1ADSL1]["akamai"] <= tw.Rows[synth.NameUS3G]["akamai"] {
		t.Fatalf("twitter akamai share EU (%v) should exceed US (%v)",
			tw.Rows[synth.NameEU1ADSL1]["akamai"], tw.Rows[synth.NameUS3G]["akamai"])
	}
	// Dailymotion rides dedibox everywhere.
	dm := maps["dailymotion.com"]
	for _, trace := range []string{synth.NameEU1ADSL1, synth.NameUS3G} {
		if dm.Rows[trace]["dedibox"] < 0.3 {
			t.Fatalf("dailymotion dedibox share in %s = %v", trace, dm.Rows[trace]["dedibox"])
		}
	}
}

func TestFigure10Cloud(t *testing.T) {
	_, cloud := shared.Figure10()
	if len(cloud) < 5 {
		t.Fatalf("cloud too small: %v", cloud)
	}
	// Tracker tokens must rank near the top (they dominate flows).
	foundTracker := false
	for _, tg := range cloud[:5] {
		if strings.Contains(tg.Token, "tracker") || strings.Contains(tg.Token, "bt") {
			foundTracker = true
		}
	}
	if !foundTracker {
		t.Fatalf("no tracker token in top 5: %v", cloud[:5])
	}
}

func TestFigure11Timeline(t *testing.T) {
	out, rep := shared.Figure11()
	if len(rep.Timeline) < 5 {
		t.Fatalf("too few trackers: %d", len(rep.Timeline))
	}
	if !strings.Contains(out, "#") {
		t.Fatal("timeline render empty")
	}
	// Persistent trackers span most bins; at least one should cover > half
	// the window.
	nBins := shared.Live().Scenario.Days * 6
	best := 0
	for _, bins := range rep.Timeline {
		if len(bins) > best {
			best = len(bins)
		}
	}
	if best < nBins/2 {
		t.Fatalf("most persistent tracker covers %d of %d bins", best, nBins)
	}
}

func TestFigure12Shape(t *testing.T) {
	_, cdfs := shared.Figure12And13()
	for _, name := range []string{synth.NameEU1FTTH, synth.NameUS3G} {
		first := cdfs[name][0]
		if first.Len() < 50 {
			t.Fatalf("%s: too few first-flow samples", name)
		}
		// Paper: ~90% within 1 s; ~5% above 10 s.
		if at1 := first.At(1); at1 < 0.6 {
			t.Fatalf("%s: first-flow <=1s = %v", name, at1)
		}
		tail := 1 - first.At(10)
		if tail < 0.005 || tail > 0.25 {
			t.Fatalf("%s: >10s tail = %v", name, tail)
		}
	}
	// FTTH is faster than 3G at the median.
	ftth := medianFirstFlowDelay(shared.Run(synth.NameEU1FTTH).DB)
	mobile := medianFirstFlowDelay(shared.Run(synth.NameUS3G).DB)
	if ftth >= mobile {
		t.Fatalf("FTTH median (%v) should beat 3G (%v)", ftth, mobile)
	}
}

// medianFirstFlowDelay is the median of the samples Figure 12's first-flow
// CDF holds, in seconds.
func medianFirstFlowDelay(db *flowdb.DB) float64 {
	var xs []float64
	for i := range db.Len() {
		if f := db.At(i); f.Labeled && f.DNSDelay >= 0 && f.FirstAfterDNS {
			xs = append(xs, f.DNSDelay.Seconds())
		}
	}
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

func TestFigure14Diurnal(t *testing.T) {
	_, series := shared.Figure14()
	vals := series[synth.NameEU1ADSL2] // 24 h starting at midnight
	if len(vals) < 100 {
		t.Fatalf("series too short: %d", len(vals))
	}
	// Evening bins must out-rate the early-morning trough.
	avg := func(from, to int) float64 {
		s, n := 0.0, 0
		for i := from; i < to && i < len(vals); i++ {
			s += vals[i]
			n++
		}
		return s / float64(n)
	}
	night := avg(4*6, 6*6)     // 04:00–06:00
	evening := avg(19*6, 22*6) // 19:00–22:00
	if evening <= night {
		t.Fatalf("no diurnal pattern: evening=%v night=%v", evening, night)
	}
}

func TestAblationClistSize(t *testing.T) {
	_, res := shared.AblationClistSize([]int{64, 4096, 1 << 18})
	if res[64] >= res[1<<18] {
		t.Fatalf("tiny Clist (%v) should hurt vs large (%v)", res[64], res[1<<18])
	}
	if res[1<<18] < 0.5 {
		t.Fatalf("large Clist hit ratio too low: %v", res[1<<18])
	}
}

func TestAblationMultiLabel(t *testing.T) {
	_, confusion, _ := shared.AblationMultiLabel()
	// Paper §6: < 4% after excluding redirections. Allow some slack.
	if confusion > 0.10 {
		t.Fatalf("label confusion = %v", confusion)
	}
}

func TestAblationTagScoreRenders(t *testing.T) {
	out := shared.AblationTagScore(25)
	if !strings.Contains(out, "Eq.1") {
		t.Fatalf("output: %s", out)
	}
}

func TestPreFlowShareHigh(t *testing.T) {
	// Nearly all labeled flows are tagged at the SYN: the paper's
	// before-the-flow-begins property.
	if share := shared.PreFlowShare(synth.NameEU1FTTH); share < 0.95 {
		t.Fatalf("pre-flow share = %v", share)
	}
}

func TestTruthAccuracy(t *testing.T) {
	acc, n := shared.TruthAccuracy(synth.NameEU1ADSL2)
	if n < 1000 {
		t.Fatalf("too few scored flows: %d", n)
	}
	if acc < 0.9 {
		t.Fatalf("label accuracy vs ground truth = %v", acc)
	}
}

func childTokens(n *analytics.TreeNode) []string {
	var out []string
	for _, c := range n.Children {
		out = append(out, c.Token)
	}
	return out
}

func TestCrossVantageOneIngestion(t *testing.T) {
	multi := shared.TriVantage()
	if len(multi.Vantages) != 3 {
		t.Fatalf("vantages = %v", multi.Vantages)
	}
	var flowsSum uint64
	for _, name := range []string{"US", "EU1", "EU2"} {
		vr, ok := multi.PerVantage[name]
		if !ok {
			t.Fatalf("missing vantage %s", name)
		}
		if vr.Stats.Flows == 0 || vr.Stats.LabeledFlows == 0 {
			t.Errorf("%s: empty partition %+v", name, vr.Stats)
		}
		flowsSum += vr.Stats.Flows
		got := 0
		for i := range multi.DB.Len() {
			if multi.DB.At(i).Vantage == name {
				got++
			}
		}
		if got != vr.DB.Len() {
			t.Errorf("%s: merged partition %d != per-vantage DB %d", name, got, vr.DB.Len())
		}
	}
	if multi.Stats.Flows != flowsSum {
		t.Errorf("aggregate flows %d != sum %d", multi.Stats.Flows, flowsSum)
	}

	out, pf := shared.CrossVantage()
	for _, want := range []string{"US", "EU1", "EU2", "Provider footprint", "CDN overlap", "facebook.com"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CrossVantage output missing %q", want)
		}
	}
	if len(pf.Vantages) != 3 || len(pf.Orgs) == 0 {
		t.Fatalf("footprint = %+v", pf)
	}
	// Footprints must differ by geography (the paper's point): at least
	// one hosting org's share differs noticeably between US and EU2.
	differs := false
	for _, org := range pf.Orgs {
		if diff := pf.Share["US"][org] - pf.Share["EU2"][org]; diff > 0.01 || diff < -0.01 {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("US and EU2 provider footprints are identical — geography lost")
	}
}

// renderAll renders every table, figure, cross-vantage and ablation
// section of a fresh suite, followed by the data behind them with floats
// at full precision (%v), so a difference in the last bit shows.
func renderAll(scale float64, seed uint64) string {
	s := NewSuite(scale, seed)
	s.LiveDays = 2
	var b strings.Builder
	out := func(v ...any) {
		for _, x := range v {
			fmt.Fprintf(&b, "%v\n", x)
		}
	}
	out(s.Table1(), s.Table2())
	for _, name := range synth.ScenarioNames {
		out(s.Table2Data(name))
	}
	out(s.Table3())
	out(s.Table4())
	us, eu := s.Table5Data()
	out(s.Table5(), us, eu, s.Table6(), s.Table7())
	for _, port := range append(append([]uint16(nil), Table6Ports...), Table7Ports...) {
		out(analytics.ExtractTags(s.Run(synth.NameEU1FTTH).DB, port, 5))
		out(analytics.ExtractTags(s.Run(synth.NameUS3G).DB, port, 5))
	}
	out(s.Table8())
	out(s.Table9())
	out(s.Figure3())
	out(s.Figure4())
	out(s.Figure5())
	out(s.Figure6())
	fig7, _ := s.Figure7()
	fig8, _ := s.Figure8()
	fig9, _ := s.Figure9()
	out(fig7, fig8, fig9)
	out(s.Figure10())
	out(s.Figure11())
	fig12, _ := s.Figure12And13()
	out(fig12)
	out(s.Figure14())
	out(s.CrossVantage())
	out(s.SketchVsExact())
	out(s.AblationClistSize([]int{64, 4096}))
	out(s.AblationMultiLabel())
	out(s.AblationTagScore(25))
	return b.String()
}

// TestSuiteDeterministic builds two suites with the same seed and requires
// every rendered table and figure to match byte for byte. Go randomises map
// iteration order on every range, so any output that depends on it — an
// unsorted row order, a last-writer-wins pick, or a float sum such as the
// Eq. 1 score taken in map order — differs between the two.
func TestSuiteDeterministic(t *testing.T) {
	a, b := renderAll(0.2, 3), renderAll(0.2, 3)
	if a == b {
		return
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			t.Fatalf("same seed, different output at line %d:\n%s\n%s", i+1, al[i], bl[i])
		}
	}
	t.Fatalf("same seed, outputs of %d and %d lines", len(al), len(bl))
}

// PreFlowShare reports how many labeled flows were tagged at their SYN —
// the paper's identify-before-the-flow-begins property.
func (s *Suite) PreFlowShare(name string) float64 {
	var labeled, pre int
	db := s.Run(name).DB
	for i := range db.Len() {
		f := db.At(i)
		if !f.Labeled {
			continue
		}
		labeled++
		if f.PreFlow {
			pre++
		}
	}
	if labeled == 0 {
		return 0
	}
	return float64(pre) / float64(labeled)
}

// TruthAccuracy scores DN-Hunter labels against the synthetic ground truth
// for flows that carry both.
func (s *Suite) TruthAccuracy(name string) (acc float64, n int) {
	var ok int
	db := s.Run(name).DB
	for i := range db.Len() {
		f := db.At(i)
		if !f.Labeled || f.Truth == "" {
			continue
		}
		n++
		if f.Label == f.Truth {
			ok++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(ok) / float64(n), n
}

// Table2Data exposes the hit ratios for assertions.
func (s *Suite) Table2Data(name string) map[flows.L7Proto]float64 {
	cov := s.Run(name).DB.Coverage(Warmup)
	out := make(map[flows.L7Proto]float64)
	for _, p := range []flows.L7Proto{flows.L7HTTP, flows.L7TLS, flows.L7P2P} {
		out[p] = cov.Ratio(p)
	}
	return out
}
