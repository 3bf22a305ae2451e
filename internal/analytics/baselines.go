package analytics

import (
	"cmp"
	"maps"
	"net/netip"
	"slices"
	"strings"
	"time"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/stats"
)

// MatchClass buckets a baseline's answer against DN-Hunter's label, the
// taxonomy of Tables 3 and 4.
type MatchClass uint8

// Comparison outcomes.
const (
	// MatchExact: the baseline returned the same FQDN.
	MatchExact MatchClass = iota
	// MatchSLD: only the second-level domain matched.
	MatchSLD
	// MatchGeneric: a wildcard certificate covering the SLD (Table 4 only).
	MatchGeneric
	// MatchDifferent: a totally different name.
	MatchDifferent
	// MatchNone: the baseline had no answer (no PTR / no certificate).
	MatchNone
)

// String names the class.
func (m MatchClass) String() string {
	switch m {
	case MatchExact:
		return "same FQDN"
	case MatchSLD:
		return "same 2nd-level domain"
	case MatchGeneric:
		return "generic certificate"
	case MatchDifferent:
		return "totally different"
	default:
		return "no answer"
	}
}

// CompareResult tallies comparison outcomes.
type CompareResult struct {
	Counts map[MatchClass]int
	Total  int
}

// Fraction returns the share of outcomes in class m.
func (r CompareResult) Fraction(m MatchClass) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Counts[m]) / float64(r.Total)
}

// classifyNames buckets a baseline answer vs the DN-Hunter label.
func classifyNames(label, answer string) MatchClass {
	if answer == "" {
		return MatchNone
	}
	label = strings.ToLower(label)
	answer = strings.ToLower(answer)
	if answer == label {
		return MatchExact
	}
	if stats.SLD(answer) == stats.SLD(label) {
		return MatchSLD
	}
	return MatchDifferent
}

// ReverseLookupCompare reproduces Table 3: sample up to n labeled server
// addresses, "perform" the reverse lookup against the PTR zone, and compare
// the PTR with the sniffer's FQDN. The zone maps address → PTR name, with
// "" meaning the name exists but resolves to nothing and a missing key
// meaning NXDOMAIN; both count as no-answer, as in the paper.
func ReverseLookupCompare(db *flowdb.DB, zone map[netip.Addr]string, n int, rng *stats.RNG) CompareResult {
	res := CompareResult{Counts: make(map[MatchClass]int)}
	// Every distinct server address, labeled or not, with the label of its
	// earliest-starting labeled flow, ties to the lower flow key: the pick
	// must not depend on row order, which differs with the shard count.
	type firstLabel struct {
		label   string
		labeled bool
		start   time.Duration
		key     flows.Key
	}
	labels := make(map[netip.Addr]firstLabel)
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		l, ok := labels[f.Key.ServerIP]
		if !ok || f.Labeled && (!l.labeled || f.Start < l.start ||
			f.Start == l.start && compareClientSide(f.Key, l.key) < 0) {
			labels[f.Key.ServerIP] = firstLabel{f.Label, f.Labeled, f.Start, f.Key}
		}
	}
	servers := slices.SortedFunc(maps.Keys(labels), netip.Addr.Compare)
	// Deterministic sample without replacement.
	for _, idx := range rng.Perm(len(servers)) {
		if res.Total >= n {
			break
		}
		srv := servers[idx]
		l := labels[srv]
		if !l.labeled || l.label == "" {
			continue // the sniffer never labeled this server
		}
		res.Counts[classifyNames(l.label, zone[srv])]++
		res.Total++
	}
	return res
}

// compareClientSide orders the keys of two flows to one server address by
// their other fields.
func compareClientSide(a, b flows.Key) int {
	return cmp.Or(a.ClientIP.Compare(b.ClientIP), cmp.Compare(a.ClientPort, b.ClientPort),
		cmp.Compare(a.ServerPort, b.ServerPort), cmp.Compare(a.Proto, b.Proto))
}

// CertCompare reproduces Table 4 over every TLS flow DN-Hunter labeled:
// compare the certificate subject captured by the inspection baseline with
// the FQDN label. Wildcard subjects ("*.google.com") covering the label's
// SLD are "generic"; absent certificates (resumption) are "no certificate".
func CertCompare(db *flowdb.DB) CompareResult {
	res := CompareResult{Counts: make(map[MatchClass]int)}
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		// Only TLS flows with a DN-Hunter label participate.
		if !f.Labeled || f.L7 != flows.L7TLS {
			continue
		}
		res.Total++
		if !f.HasCert {
			res.Counts[MatchNone]++
			continue
		}
		cn := strings.ToLower(f.CertName)
		label := strings.ToLower(f.Label)
		switch {
		case cn == label:
			res.Counts[MatchExact]++
		case strings.HasPrefix(cn, "*."):
			if stats.SLD(cn[2:]) == stats.SLD(label) || cn[2:] == stats.SLD(label) {
				res.Counts[MatchGeneric]++
			} else {
				res.Counts[MatchDifferent]++
			}
		case stats.SLD(cn) == stats.SLD(label):
			res.Counts[MatchSLD]++
		default:
			res.Counts[MatchDifferent]++
		}
	}
	return res
}
