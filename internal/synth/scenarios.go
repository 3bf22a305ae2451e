package synth

import "time"

// scenarios.go defines the five named captures mirroring the paper's
// Table 1, scaled to laptop size (the paper monitors thousands of
// customers for up to 24 h; we default to a few hundred). Scale multiplies
// client counts; the shapes under study are scale-free.

// Named scenario identifiers.
const (
	NameUS3G     = "US-3G"
	NameEU2ADSL  = "EU2-ADSL"
	NameEU1ADSL1 = "EU1-ADSL1"
	NameEU1ADSL2 = "EU1-ADSL2"
	NameEU1FTTH  = "EU1-FTTH"
	// NameDNSChurn is a synthetic stress vantage point, not one of the
	// paper's captures: aggressive prefetching and a high session rate
	// produce a DNS-response-heavy packet mix with fast resolver churn.
	// The benchmark harness uses it to exercise the DNS decode + insert
	// path, where the flow-dominated scenarios mostly exercise the tagger.
	NameDNSChurn = "DNS-CHURN"
	// NameTriVantage is the multi-geography scenario: one seed expands into
	// three concurrent vantage points (US, EU1, EU2 — see
	// TriVantageScenarios) for the cross-vantage comparisons of Figs. 7-9
	// and Tables 5-8. It is not a single capture: generate it with
	// TriVantageScenarios and ingest the three traces through
	// Engine.RunSources.
	NameTriVantage = "TRIVANTAGE"
	// NameLive is the 18-day live window of the paper's EU1 deployment
	// (April 2012): the data behind Fig. 6's birth processes and the
	// appspot analysis of Table 8 and Figs. 10/11. It is not one of the
	// Table 1 captures.
	NameLive = "LIVE"
)

// ScenarioNames lists the five Table 1 captures in paper order.
var ScenarioNames = []string{NameUS3G, NameEU2ADSL, NameEU1ADSL1, NameEU1ADSL2, NameEU1FTTH}

// NamedScenario returns the scenario configuration for one of the paper's
// vantage points, with client counts multiplied by scale (1.0 ≈ a few
// hundred clients). It panics on an unknown name.
func NamedScenario(name string, scale float64, seed uint64) Scenario {
	if scale <= 0 {
		scale = 1
	}
	n := func(base int) int {
		v := int(float64(base) * scale)
		if v < 4 {
			v = 4
		}
		return v
	}
	switch name {
	case NameUS3G:
		// Mobile: 3 h, modest rate, high mobility and tunneling — the
		// paper's lowest hit ratio and lowest useless-DNS fraction.
		return Scenario{
			Name: name, Geo: GeoUS,
			Duration: 3 * time.Hour, StartHour: 15.5,
			Clients: n(160), SessionRate: 9,
			DelayMu: -0.5, DelaySigma: 1.1,
			PrefetchFactor: 1.6, LatePrefetchProb: 0.05,
			MobileFraction: 0.35, TunnelFraction: 0.16,
			P2PFraction: 0.06, WarmCacheFraction: 0.25,
			ServiceMix: 0.30, Seed: seed,
		}
	case NameEU2ADSL:
		return Scenario{
			Name: name, Geo: GeoEU2,
			Duration: 6 * time.Hour, StartHour: 14.8,
			Clients: n(200), SessionRate: 10,
			DelayMu: -1.6, DelaySigma: 1.0,
			PrefetchFactor: 2.2, LatePrefetchProb: 0.05,
			MobileFraction: 0, TunnelFraction: 0.01,
			P2PFraction: 0.08, WarmCacheFraction: 0.15,
			ServiceMix: 0.12, Seed: seed,
		}
	case NameEU1ADSL1:
		// The paper's largest capture: 24 h.
		return Scenario{
			Name: name, Geo: GeoEU1,
			Duration: 24 * time.Hour, StartHour: 8,
			Clients: n(120), SessionRate: 8,
			DelayMu: -1.5, DelaySigma: 1.0,
			PrefetchFactor: 2.15, LatePrefetchProb: 0.05,
			MobileFraction: 0, TunnelFraction: 0.02,
			P2PFraction: 0.10, WarmCacheFraction: 0.15,
			ServiceMix: 0.15, Seed: seed,
		}
	case NameEU1ADSL2:
		// Table 1 lists 5 h, but Figs. 4/5 plot 24 h from this vantage
		// point; we generate 24 h so the time-series figures reproduce.
		return Scenario{
			Name: name, Geo: GeoEU1,
			Duration: 24 * time.Hour, StartHour: 0,
			Clients: n(90), SessionRate: 8,
			DelayMu: -1.5, DelaySigma: 1.0,
			PrefetchFactor: 2.2, LatePrefetchProb: 0.05,
			MobileFraction: 0, TunnelFraction: 0.02,
			P2PFraction: 0.09, WarmCacheFraction: 0.15,
			ServiceMix: 0.15, Seed: seed,
		}
	case NameEU1FTTH:
		return Scenario{
			Name: name, Geo: GeoEU1,
			Duration: 3 * time.Hour, StartHour: 17,
			Clients: n(60), SessionRate: 11,
			DelayMu: -2.3, DelaySigma: 0.9,
			PrefetchFactor: 2.25, LatePrefetchProb: 0.05,
			MobileFraction: 0, TunnelFraction: 0.015,
			P2PFraction: 0.12, WarmCacheFraction: 0.18,
			ServiceMix: 0.25, Seed: seed,
		}
	case NameDNSChurn:
		// Stress mix: FTTH-like latencies but with heavy prefetching (most
		// resolutions never followed by a flow), a dense session rate, and
		// a cold cache, so the trace is dominated by DNS responses and
		// short-lived flows — the worst case for resolver and intern churn.
		return Scenario{
			Name: name, Geo: GeoEU1,
			Duration: 90 * time.Minute, StartHour: 20,
			Clients: n(80), SessionRate: 18,
			DelayMu: -2.3, DelaySigma: 0.9,
			PrefetchFactor: 4.5, LatePrefetchProb: 0.10,
			MobileFraction: 0.10, TunnelFraction: 0.01,
			P2PFraction: 0.04, WarmCacheFraction: 0,
			ServiceMix: 0.20, Seed: seed,
		}
	case NameLive:
		// Web browsing plus appspot services only, at a per-client rate
		// low enough that eighteen days of packets stay tractable.
		return Scenario{
			Name: name, Geo: GeoEU1,
			Duration: 18 * 24 * time.Hour, StartHour: 0,
			Clients: n(150), SessionRate: 2.5,
			DelayMu: -1.5, DelaySigma: 1.0,
			PrefetchFactor: 1, LatePrefetchProb: 0.05,
			AppspotShare: 0.1, Seed: seed,
		}
	default:
		panic("synth: unknown scenario " + name)
	}
}

// TriVantageScenarios expands one seed into the three-geography vantage
// set of the TRIVANTAGE scenario: a US mobile vantage, an EU1 FTTH vantage,
// and an EU2 ADSL vantage, all covering the same 3-hour evening window so
// their footprints compare directly. Each vantage derives its own sub-seed,
// so the three traces are independent but the whole set reproduces from
// (scale, seed). The scenario Name is the vantage name ("US", "EU1",
// "EU2") — exactly the label the multi-source Engine stamps on events.
func TriVantageScenarios(scale float64, seed uint64) []Scenario {
	us := NamedScenario(NameUS3G, scale, seed*3+1)
	eu1 := NamedScenario(NameEU1FTTH, scale, seed*3+2)
	eu2 := NamedScenario(NameEU2ADSL, scale, seed*3+3)
	us.Name, eu1.Name, eu2.Name = "US", "EU1", "EU2"
	// Align the capture windows: same duration, same local start hour, so
	// per-vantage footprints cover comparable diurnal load.
	for _, sc := range []*Scenario{&us, &eu1, &eu2} {
		sc.Duration = 3 * time.Hour
		sc.StartHour = 17
	}
	return []Scenario{us, eu1, eu2}
}

// QuickScenario is a small fast scenario for tests and examples.
func QuickScenario(seed uint64) Scenario {
	return Scenario{
		Name: "quick", Geo: GeoEU1,
		Duration: 30 * time.Minute, StartHour: 18,
		Clients: 24, SessionRate: 20,
		DelayMu: -1.6, DelaySigma: 1.0,
		PrefetchFactor: 2.2, LatePrefetchProb: 0.05,
		P2PFraction: 0.1, WarmCacheFraction: 0.1,
		TunnelFraction: 0.02, ServiceMix: 0.2,
		Seed: seed,
	}
}
