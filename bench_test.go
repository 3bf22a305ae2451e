package dnhunter

// bench_test.go regenerates every table and figure of the paper's
// evaluation as a testing.B target (run: go test -bench=. -benchmem).
// Trace synthesis and the pipeline run happen once per scenario and are
// shared; each bench times the experiment's analytics and reports its
// headline result as a custom metric, so `go test -bench` output doubles
// as the reproduction record.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/experiments"
	"repro/internal/flows"
	"repro/internal/resolver"
	"repro/internal/synth"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
)

// suite returns the shared, lazily-built experiment suite.
func suite() *experiments.Suite {
	benchOnce.Do(func() {
		benchSuite = experiments.NewSuite(0.35, 1)
		benchSuite.LiveDays = 4
	})
	return benchSuite
}

func BenchmarkTable1Datasets(b *testing.B) {
	s := suite()
	for _, name := range synth.ScenarioNames {
		s.Run(name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table1()
	}
}

func BenchmarkTable2HitRatio(b *testing.B) {
	s := suite()
	for _, name := range synth.ScenarioNames {
		s.Run(name)
	}
	b.ResetTimer()
	httpHit := func(name string) float64 {
		return s.Run(name).DB.Coverage(experiments.Warmup).Ratio(flows.L7HTTP)
	}
	var hit float64
	for i := 0; i < b.N; i++ {
		hit = httpHit(synth.NameEU1ADSL1)
	}
	b.ReportMetric(100*hit, "%http-hit")
	b.ReportMetric(100*httpHit(synth.NameUS3G), "%http-hit-3g")
}

func BenchmarkTable3ReverseLookup(b *testing.B) {
	s := suite()
	s.Run(synth.NameEU1ADSL2)
	b.ResetTimer()
	var res analytics.CompareResult
	for i := 0; i < b.N; i++ {
		_, res = s.Table3()
	}
	b.ReportMetric(100*res.Fraction(analytics.MatchExact), "%exact")
	b.ReportMetric(100*res.Fraction(analytics.MatchNone), "%no-answer")
}

func BenchmarkTable4Certificates(b *testing.B) {
	s := suite()
	s.Run(synth.NameEU1ADSL2)
	b.ResetTimer()
	var res analytics.CompareResult
	for i := 0; i < b.N; i++ {
		_, res = s.Table4()
	}
	b.ReportMetric(100*res.Fraction(analytics.MatchExact), "%cert-exact")
	b.ReportMetric(100*res.Fraction(analytics.MatchNone), "%no-cert")
}

func BenchmarkTable5ContentDiscovery(b *testing.B) {
	s := suite()
	s.Run(synth.NameUS3G)
	s.Run(synth.NameEU1ADSL1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Table5Data()
	}
}

func BenchmarkTable6TagsWellKnown(b *testing.B) {
	s := suite()
	run := s.Run(synth.NameEU1FTTH)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, port := range experiments.Table6Ports {
			analytics.ExtractTags(run.DB, port, 5)
		}
	}
}

func BenchmarkTable7TagsUnknown(b *testing.B) {
	s := suite()
	run := s.Run(synth.NameUS3G)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, port := range experiments.Table7Ports {
			analytics.ExtractTags(run.DB, port, 5)
		}
	}
}

func BenchmarkTable8Appspot(b *testing.B) {
	s := suite()
	s.Live()
	b.ResetTimer()
	var rep *analytics.AppspotReport
	for i := 0; i < b.N; i++ {
		_, rep = s.Table8()
	}
	b.ReportMetric(float64(rep.TrackerFlows), "tracker-flows")
	b.ReportMetric(float64(rep.GeneralFlows), "general-flows")
}

func BenchmarkTable9UselessDNS(b *testing.B) {
	s := suite()
	for _, name := range synth.ScenarioNames {
		s.Run(name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table9()
	}
	b.ReportMetric(100*s.Run(synth.NameEU1ADSL1).Stats.UselessDNSFraction(), "%useless-eu")
	b.ReportMetric(100*s.Run(synth.NameUS3G).Stats.UselessDNSFraction(), "%useless-3g")
}

func BenchmarkFigure3FanoutCDF(b *testing.B) {
	s := suite()
	s.Run(synth.NameEU2ADSL)
	b.ResetTimer()
	var fqdnSingle, ipSingle float64
	for i := 0; i < b.N; i++ {
		_, fqdnSingle, ipSingle = s.Figure3()
	}
	b.ReportMetric(100*fqdnSingle, "%fqdn-1ip")
	b.ReportMetric(100*ipSingle, "%ip-1fqdn")
}

func BenchmarkFigure4ServerTimeseries(b *testing.B) {
	s := suite()
	s.Run(synth.NameEU1ADSL2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Figure4()
	}
}

func BenchmarkFigure5CDNTimeseries(b *testing.B) {
	s := suite()
	s.Run(synth.NameEU1ADSL2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Figure5()
	}
}

func BenchmarkFigure6BirthProcess(b *testing.B) {
	s := suite()
	s.Live()
	b.ResetTimer()
	var bs *analytics.BirthSeries
	for i := 0; i < b.N; i++ {
		_, bs = s.Figure6()
	}
	b.ReportMetric(bs.GrowthRatio(bs.FQDN), "fqdn-late-growth")
	b.ReportMetric(bs.GrowthRatio(bs.Server), "ip-late-growth")
}

func BenchmarkFigure7DomainTree(b *testing.B) {
	s := suite()
	s.Run(synth.NameUS3G)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Figure7()
	}
}

func BenchmarkFigure8DomainTree(b *testing.B) {
	s := suite()
	s.Run(synth.NameUS3G)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Figure8()
	}
}

func BenchmarkFigure9Heatmap(b *testing.B) {
	s := suite()
	s.Run(synth.NameEU1ADSL1)
	s.Run(synth.NameUS3G)
	s.Run(synth.NameEU2ADSL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Figure9()
	}
}

func BenchmarkFigure10TagCloud(b *testing.B) {
	s := suite()
	s.Live()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Figure10()
	}
}

func BenchmarkFigure11Trackers(b *testing.B) {
	s := suite()
	s.Live()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Figure11()
	}
}

func BenchmarkFigure12FirstFlowDelay(b *testing.B) {
	s := suite()
	for _, name := range synth.ScenarioNames {
		s.Run(name)
	}
	b.ResetTimer()
	var p1 float64
	for i := 0; i < b.N; i++ {
		_, m := s.Figure12And13()
		p1 = m[synth.NameEU1FTTH][0].At(1)
	}
	b.ReportMetric(100*p1, "%first<=1s")
}

func BenchmarkFigure13AnyFlowDelay(b *testing.B) {
	s := suite()
	run := s.Run(synth.NameEU1ADSL1)
	b.ResetTimer()
	var within float64
	for i := 0; i < b.N; i++ {
		_, any := analytics.DelayCDFs(run.DB)
		within = any.At(3600)
	}
	b.ReportMetric(100*within, "%any<=1h")
}

func BenchmarkFigure14DNSRate(b *testing.B) {
	s := suite()
	run := s.Run(synth.NameEU1ADSL1)
	b.ResetTimer()
	var peak float64
	for i := 0; i < b.N; i++ {
		vals := analytics.DNSRate(run.DNSTimes, 10*time.Minute)
		peak = 0
		for _, v := range vals {
			if v > peak {
				peak = v
			}
		}
	}
	b.ReportMetric(peak, "peak-resp/10min")
}

// --- Ablation benches: the design choices DESIGN.md calls out. ---

func BenchmarkAblationClistSize(b *testing.B) {
	s := suite()
	for _, L := range []int{256, 4096, 1 << 18} {
		L := L
		b.Run(sizeName(L), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				run := s.RunWithResolver(synth.NameEU1FTTH, resolver.Config{ClistSize: L})
				hit = run.Stats.Resolver.HitRatio()
			}
			b.ReportMetric(100*hit, "%hit")
		})
	}
}

func sizeName(L int) string {
	switch {
	case L >= 1<<20:
		return "L1M"
	case L >= 1<<18:
		return "L256k"
	case L >= 4096:
		return "L4k"
	default:
		return "L256"
	}
}

func BenchmarkAblationMultiLabel(b *testing.B) {
	s := suite()
	s.Run(synth.NameEU1ADSL2)
	b.ResetTimer()
	var confusion float64
	for i := 0; i < b.N; i++ {
		_, confusion, _ = s.AblationMultiLabel()
	}
	b.ReportMetric(100*confusion, "%confusion")
}

func BenchmarkAblationTagScore(b *testing.B) {
	s := suite()
	run := s.Run(synth.NameEU1FTTH)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analytics.ExtractTags(run.DB, 25, 5)
		analytics.ExtractTagsRaw(run.DB, 25, 5)
	}
}
