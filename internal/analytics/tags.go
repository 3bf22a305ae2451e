// Package analytics implements the paper's off-line analyzer (§4): spatial
// discovery of servers (Algorithm 2), content discovery (Algorithm 3),
// automatic service-tag extraction (Algorithm 4), the two baselines the
// paper compares against (active reverse lookup, TLS certificate
// inspection), and the measurement extraction behind every figure.
package analytics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/flowdb"
	"repro/internal/stats"
)

// TagScore is one ranked service token.
type TagScore struct {
	Token string
	// Score is Σ_c log(N_X(c)+1) over clients c (paper Eq. 1): the
	// logarithm damps single clients that open very many connections.
	Score float64
	// Flows is the raw flow count carrying the token.
	Flows int
}

// ExtractTags implements Algorithm 4: retrieve the FQDNs of flows to dPort,
// tokenize each (drop TLD and SLD, split on non-alphanumerics, digits → N),
// score tokens per Eq. 1, and return the top k.
func ExtractTags(db *flowdb.DB, dPort uint16, k int) []TagScore {
	return extractTags(db, dPort, k, true)
}

// ExtractTagsRaw is the ablation variant scoring by raw flow counts instead
// of Eq. 1's per-client log damping (the A:tagscore experiment): a single
// chatty client can dominate the ranking.
func ExtractTagsRaw(db *flowdb.DB, dPort uint16, k int) []TagScore {
	return extractTags(db, dPort, k, false)
}

// extractTags is Algorithm 4 in one scan: it tallies the service tokens of
// every labeled flow to dPort per client (N_X(c)) and ranks them.
func extractTags(db *flowdb.DB, dPort uint16, k int, damped bool) []TagScore {
	tally := newContentTally()
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		if !f.Labeled || f.Key.ServerPort != dPort {
			continue
		}
		for _, tok := range stats.ServiceTokens(f.Label) {
			tally.add(tok, f.Key.ClientIP)
		}
	}
	return tally.rankTags(k, damped)
}

// rankTags returns the tallied tokens best score first (ties by token),
// truncated to k when k > 0. The score is Eq. 1's per-client log damping,
// or the raw flow count when damped is false.
func (c *contentTally) rankTags(k int, damped bool) []TagScore {
	out := make([]TagScore, 0, len(c.flowsPer))
	for tok, n := range c.flowsPer {
		score := float64(n)
		if damped {
			score = logScore(c.perClient[tok])
		}
		out = append(out, TagScore{Token: tok, Score: score, Flows: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Token < out[j].Token // stable tie-break
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// FormatTags renders tags like the paper's tables: "(91)smtp, (37)mail".
func FormatTags(tags []TagScore) string {
	parts := make([]string, len(tags))
	for i, t := range tags {
		parts[i] = fmt.Sprintf("(%.0f)%s", t.Score, t.Token)
	}
	return strings.Join(parts, ", ")
}

// TagCloud scores every token across all ports for an SLD — the word cloud
// of Fig. 10 (appspot services). Scores use Eq. 1 over the host prefix of
// each FQDN under the SLD.
func TagCloud(db *flowdb.DB, sld string, k int) []TagScore {
	tally := newContentTally()
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		if !f.Labeled || f.SLD != sld {
			continue
		}
		if host := stats.HostPrefix(f.Label); host != "" {
			tally.add(stats.GeneralizeDigits(host), f.Key.ClientIP)
		}
	}
	return tally.rankTags(k, true)
}
