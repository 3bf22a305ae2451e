package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/analytics"
	"repro/internal/analytics/stream"
	"repro/internal/synth"
)

// sketch.go drives the SK experiment: run the sketch-based streaming
// analytics and their exact references over the same scenarios and
// check every result stays within the documented error bounds — the
// human-readable companion to the differential fuzz tests.

// sketchTolerance is how many standard errors an HLL estimate may stray
// from the exact cardinality before the experiment fails. 5σ keeps the
// check meaningful while making seed-dependent flakes (~1e-6 per
// comparison if the estimator behaved gaussianly) effectively impossible.
const sketchTolerance = 5.0

// errSketchBound is SketchVsExact's Report.Err when a sketch strays
// outside its documented error bound.
var errSketchBound = errors.New("sketch results outside documented error bounds")

// SketchVsExact compares the sketched streaming queries against the exact
// references on every named scenario. Report.Err is set if any sketch
// result violated its documented bound: a space-saving count whose
// [count-err, count] interval misses the true count, a heavy hitter above
// Observed/Capacity the sketch lost, or an HLL estimate more than
// sketchTolerance standard errors off.
func (s *Suite) SketchVsExact() Report {
	var b strings.Builder
	ok := true
	fmt.Fprintf(&b, "Sketch vs exact analytics (space-saving %d counters, HLL 2^%d registers, %.0fσ bound)\n",
		stream.DefaultCounters, stream.DefaultHLLPrecision, sketchTolerance)
	fmt.Fprintf(&b, "%-10s %-22s %9s %9s %10s %s\n", "Trace", "Query", "Exact", "Sketch", "MaxErr", "Status")
	for _, name := range synth.ScenarioNames {
		run := s.Run(name)
		lookup := analytics.OrgLookupDB(run.Trace.OrgDB)
		exact := analytics.NewPipeline(
			analytics.NewExactTopDomains(stream.DefaultTopK),
			analytics.NewExactTopSLDs(stream.DefaultTopK),
			analytics.NewExactTopOrgs(lookup, stream.DefaultTopK),
			analytics.NewExactSLDFootprint(stream.DefaultTopK),
		)
		sk := analytics.NewPipeline(
			stream.NewTopDomains(stream.DefaultTopK, stream.DefaultCounters),
			stream.NewTopSLDs(stream.DefaultTopK, stream.DefaultCounters),
			stream.NewTopOrgs(lookup, stream.DefaultTopK, stream.DefaultCounters),
			stream.NewSLDFootprint(stream.DefaultTopK, stream.DefaultMaxSLDs, stream.DefaultHLLPrecision),
		)
		exact.ObserveDB(run.DB)
		sk.ObserveDB(run.DB)

		for _, qname := range []string{"top_domains", "top_slds", "top_orgs"} {
			line, good := compareTopK(exact, sk, qname)
			fmt.Fprintf(&b, "%-10s %s\n", name, line)
			ok = ok && good
		}
		line, good := compareFootprint(exact, sk)
		fmt.Fprintf(&b, "%-10s %s\n", name, line)
		ok = ok && good
	}
	if !ok {
		b.WriteString("BOUND VIOLATION: see FAIL rows above\n")
		return Report{Text: b.String(), Err: errSketchBound}
	}
	b.WriteString("all sketches within documented error bounds\n")
	return Report{Text: b.String()}
}

func status(good bool) string {
	if good {
		return "ok"
	}
	return "FAIL"
}

// compareTopK checks the space-saving guarantees for one query name:
// every sketched count brackets the true count within its error bound,
// and every exact heavy hitter above the N/m threshold is tracked.
func compareTopK(exact, sk *analytics.Pipeline, qname string) (string, bool) {
	eq, _ := exact.Query(qname)
	sq, _ := sk.Query(qname)
	et := eq.Snapshot().(analytics.TopKResult)
	st := sq.Snapshot().(analytics.TopKResult)

	trueCounts := make(map[string]uint64, len(et.Entries))
	for _, e := range et.Entries {
		trueCounts[e.Key] = e.Count
	}
	sketched := make(map[string]analytics.TopEntry, len(st.Entries))
	var maxErr uint64
	good := et.Observed == st.Observed
	for _, e := range st.Entries {
		sketched[e.Key] = e
		if e.Err > maxErr {
			maxErr = e.Err
		}
		// The sketch may overestimate by at most Err; it never
		// underestimates. Only keys the exact query ranked are checkable
		// here (the exact snapshot is already truncated to k), which is
		// what the bound is about: the keys that matter.
		if tc, known := trueCounts[e.Key]; known {
			if tc > e.Count || tc < e.Count-e.Err {
				good = false
			}
		}
	}
	// Guarantee: any key with true count > Observed/Capacity is tracked.
	threshold := st.Observed / uint64(st.Capacity)
	for key, tc := range trueCounts {
		if tc > threshold {
			if _, tracked := sketched[key]; !tracked {
				good = false
			}
		}
	}
	return fmt.Sprintf("%-22s %9d %9d %10d %s", qname, et.Observed, st.Observed, maxErr, status(good)), good
}

// compareFootprint checks every sketched per-SLD server estimate (and
// the union) against the exact cardinality, within sketchTolerance
// standard errors.
func compareFootprint(exact, sk *analytics.Pipeline) (string, bool) {
	eq, _ := exact.Query("sld_server_footprint")
	sq, _ := sk.Query("sld_server_footprint")
	ec := eq.Snapshot().(analytics.CardinalityResult)
	sc := sq.Snapshot().(analytics.CardinalityResult)

	within := func(est, truth float64) bool {
		slack := sketchTolerance * sc.StdError * truth
		if slack < 2 { // tiny sets: the estimator is integral-ish, allow ±2
			slack = 2
		}
		diff := est - truth
		if diff < 0 {
			diff = -diff
		}
		return diff <= slack
	}
	truthPer := make(map[string]float64, len(ec.Entries))
	for _, e := range ec.Entries {
		truthPer[e.Key] = e.Count
	}
	good := sc.DroppedFlows == 0 && within(sc.Total, ec.Total)
	var maxRel float64
	for _, e := range sc.Entries {
		truth, known := truthPer[e.Key]
		if !known {
			continue // ranked differently under estimation noise
		}
		if !within(e.Count, truth) {
			good = false
		}
		if truth > 0 {
			rel := (e.Count - truth) / truth
			if rel < 0 {
				rel = -rel
			}
			if rel > maxRel {
				maxRel = rel
			}
		}
	}
	return fmt.Sprintf("%-22s %9.0f %9.1f %9.1f%% %s",
		"sld_server_footprint", ec.Total, sc.Total, 100*maxRel, status(good)), good
}
