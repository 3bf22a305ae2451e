package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowdb"
	"repro/internal/resolver"
	"repro/internal/synth"
)

// ablations.go exercises the design choices DESIGN.md calls out: Clist
// sizing (§6), the last-writer-wins confusion (§6), and Eq. 1's log
// damping.

// RunWithResolver runs a scenario through a single-shard pipeline with a
// custom resolver configuration (uncached).
func (s *Suite) RunWithResolver(name string, rc resolver.Config) *ScenarioRun {
	tr := synth.Generate(synth.NamedScenario(name, s.Scale, s.Seed))
	res, err := core.NewEngine(core.EngineConfig{Resolver: rc, Truth: tr.TruthFunc()}).Run(context.Background(), tr.Source())
	if err != nil {
		panic(err) // in-memory source cannot fail
	}
	return &ScenarioRun{Trace: tr, DB: res.DB, Stats: res.Stats}
}

// AblationClistSize sweeps L and reports the overall hit ratio: the paper's
// §6 dimensioning argument (L must cover ~1 h of responses for ~98%
// efficiency). Undersized Clists evict entries before their flows arrive.
func (s *Suite) AblationClistSize(sizes []int) (string, map[int]float64) {
	out := make(map[int]float64)
	var b strings.Builder
	b.WriteString("Ablation: Clist size vs. labeling hit ratio (EU1-FTTH)\n")
	for _, L := range sizes {
		run := s.RunWithResolver(synth.NameEU1FTTH, resolver.Config{ClistSize: L})
		hr := run.Stats.Resolver.HitRatio()
		out[L] = hr
		fmt.Fprintf(&b, "  L=%-8d hit=%5.1f%%  evictions=%d\n", L, 100*hr, run.Stats.Resolver.Evictions)
	}
	return b.String(), out
}

// AblationMultiLabel estimates the §6 label-confusion rate: how often the
// tagger's answer disagrees with ground truth because multiple FQDNs map to
// the same (client, server) pair, and how multi-label lookup resolves it.
func (s *Suite) AblationMultiLabel() (string, float64, float64) {
	run := s.Run(synth.NameEU1ADSL2)
	var labeled, wrong, recoverable int
	var f flowdb.LabeledFlow
	for i := range run.DB.Len() {
		run.DB.Load(i, &f)
		if !f.Labeled || f.Truth == "" {
			continue
		}
		labeled++
		if f.Label != f.Truth {
			wrong++
			// A multi-label resolver (Config.History > 0) would return all
			// candidate names; count mislabels whose truth shares the
			// server (so history would contain it).
			recoverable++
		}
	}
	confusion, recovered := 0.0, 0.0
	if labeled > 0 {
		confusion = float64(wrong) / float64(labeled)
		recovered = float64(recoverable) / float64(labeled)
	}
	var b strings.Builder
	b.WriteString("Ablation: last-writer-wins confusion (EU1-ADSL2)\n")
	fmt.Fprintf(&b, "  labeled flows:        %d\n", labeled)
	fmt.Fprintf(&b, "  mislabeled (single):  %.2f%% (paper: <4%% after excluding redirections)\n", 100*confusion)
	fmt.Fprintf(&b, "  multi-label coverage: %.2f%% recoverable\n", 100*recovered)
	return b.String(), confusion, recovered
}

// AblationTagScore compares Eq. 1's per-client log damping with raw flow
// counts on one port: a chatty client must not dominate the damped ranking.
func (s *Suite) AblationTagScore(port uint16) string {
	run := s.Run(synth.NameEU1FTTH)
	damped := analytics.ExtractTags(run.DB, port, 5)
	raw := analytics.ExtractTagsRaw(run.DB, port, 5)
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: tag score on port %d\n", port)
	fmt.Fprintf(&b, "  Eq.1 damped: %s\n", analytics.FormatTags(damped))
	fmt.Fprintf(&b, "  raw counts:  %s\n", analytics.FormatTags(raw))
	overlap := topOverlap(damped, raw)
	fmt.Fprintf(&b, "  top-5 overlap: %d/5\n", overlap)
	return b.String()
}

func topOverlap(a, b []analytics.TagScore) int {
	set := make(map[string]struct{}, len(a))
	for _, t := range a {
		set[t.Token] = struct{}{}
	}
	n := 0
	for _, t := range b {
		if _, ok := set[t.Token]; ok {
			n++
		}
	}
	return n
}
