package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/flowdb"
	"repro/internal/resolver"
	"repro/internal/synth"
)

// ablations.go exercises three design choices of §6: Clist sizing, the
// last-writer-wins confusion, and Eq. 1's log damping.

// clistSizes are the Clist lengths L the Clist-size ablation sweeps, from
// far too small to large enough that nothing is evicted.
var clistSizes = []int{64, 1024, 16384, 1 << 18}

// tagScorePort is the port whose tags the tag-score ablation ranks both
// ways (SMTP on EU1-FTTH).
const tagScorePort = 25

// AblationClistSize sweeps L and reports the overall hit ratio: the paper's
// §6 dimensioning argument (L must cover ~1 h of responses for ~98%
// efficiency). Undersized Clists evict entries before their flows arrive.
// Each size runs the EU1-FTTH trace again on one shard, because a Clist per
// shard changes eviction; the trace is generated anew, since a cached run
// keeps no packets.
func (s *Suite) AblationClistSize() Report {
	tr := synth.Generate(synth.NamedScenario(synth.NameEU1FTTH, s.Scale, s.Seed))
	var r Report
	var b strings.Builder
	b.WriteString("Ablation: Clist size vs. labeling hit ratio (EU1-FTTH)\n")
	for _, L := range clistSizes {
		run := runTrace(tr, core.EngineConfig{Resolver: resolver.Config{ClistSize: L}})
		hr := run.Stats.Resolver.HitRatio()
		fmt.Fprintf(&b, "  L=%-8d hit=%5.1f%%  evictions=%d\n", L, 100*hr, run.Stats.Resolver.Evictions)
		r.Metrics = append(r.Metrics, Metric{fmt.Sprintf("%%hit-L%d", L), 100 * hr})
	}
	r.Text = b.String()
	return r
}

// AblationMultiLabel estimates the §6 label-confusion rate: how often the
// tagger's answer disagrees with ground truth because multiple FQDNs map to
// the same (client, server) pair.
func (s *Suite) AblationMultiLabel() Report {
	run := s.Run(synth.NameEU1ADSL2)
	var labeled, wrong int
	var f flowdb.LabeledFlow
	for i := range run.DB.Len() {
		run.DB.Load(i, &f)
		if !f.Labeled || f.Truth == "" {
			continue
		}
		labeled++
		if f.Label != f.Truth {
			wrong++
		}
	}
	confusion := 0.0
	if labeled > 0 {
		confusion = float64(wrong) / float64(labeled)
	}
	var b strings.Builder
	b.WriteString("Ablation: last-writer-wins confusion (EU1-ADSL2)\n")
	fmt.Fprintf(&b, "  labeled flows:        %d\n", labeled)
	fmt.Fprintf(&b, "  mislabeled (single):  %.2f%% (paper: <4%% after excluding redirections)\n", 100*confusion)
	return Report{Text: b.String(), Metrics: []Metric{{"%confusion", 100 * confusion}}}
}

// AblationTagScore compares Eq. 1's per-client log damping with raw flow
// counts on one port: a chatty client must not dominate the damped ranking.
func (s *Suite) AblationTagScore() Report {
	run := s.Run(synth.NameEU1FTTH)
	damped := analytics.ExtractTags(run.DB, tagScorePort, 5)
	raw := analytics.ExtractTagsRaw(run.DB, tagScorePort, 5)
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: tag score on port %d\n", tagScorePort)
	fmt.Fprintf(&b, "  Eq.1 damped: %s\n", analytics.FormatTags(damped))
	fmt.Fprintf(&b, "  raw counts:  %s\n", analytics.FormatTags(raw))
	fmt.Fprintf(&b, "  top-5 overlap: %d/5\n", topOverlap(damped, raw))
	return Report{Text: b.String()}
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
