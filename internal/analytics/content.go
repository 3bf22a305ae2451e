package analytics

import (
	"net/netip"
	"sort"

	"repro/internal/flowdb"
	"repro/internal/stats"
)

// ContentShare is one hosted name with its traffic share on a server set.
type ContentShare struct {
	Name  string // FQDN or SLD depending on granularity
	Flows int
	Share float64
	Score float64 // Eq. 1 log-damped score
}

// Granularity selects how Algorithm 3 aggregates FQDNs.
type Granularity uint8

// Aggregation levels.
const (
	// ByFQDN keeps complete FQDNs.
	ByFQDN Granularity = iota
	// BySLD folds to second-level domains (organizations) — the Table 5
	// view.
	BySLD
)

// contentTally is the aggregate of Algorithms 3 and 4: labeled flows per
// name (a hosted name, or a service token), split by client for the Eq. 1
// score.
type contentTally struct {
	perClient map[string]map[netip.Addr]int
	flowsPer  map[string]int
	total     int
}

func newContentTally() contentTally {
	return contentTally{perClient: map[string]map[netip.Addr]int{}, flowsPer: map[string]int{}}
}

// add counts one flow of client to name.
func (c *contentTally) add(name string, client netip.Addr) {
	m, ok := c.perClient[name]
	if !ok {
		m = make(map[netip.Addr]int)
		c.perClient[name] = m
	}
	m[client]++
	c.flowsPer[name]++
	c.total++
}

// rank returns the names by flow count (ties by name), each with its share
// of the flows and its score, truncated to k when k > 0.
func (c *contentTally) rank(k int) []ContentShare {
	out := make([]ContentShare, 0, len(c.flowsPer))
	for name, n := range c.flowsPer {
		cs := ContentShare{Name: name, Flows: n, Score: logScore(c.perClient[name])}
		if c.total > 0 {
			cs.Share = float64(n) / float64(c.total)
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flows != out[j].Flows {
			return out[i].Flows > out[j].Flows
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// FanoutCDFs computes Fig. 3: the distribution of (a) how many server
// addresses each FQDN is served by and (b) how many FQDNs each server
// address serves.
func FanoutCDFs(db *flowdb.DB) (ipsPerFQDN, fqdnsPerIP *stats.CDF) {
	perFQDN := make(map[string]map[netip.Addr]struct{})
	perServer := make(map[netip.Addr]map[string]struct{})
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		if f.Labeled {
			addToSet(perFQDN, f.Label, f.Key.ServerIP)
			addToSet(perServer, f.Key.ServerIP, f.Label)
		}
	}
	ipsPerFQDN, fqdnsPerIP = &stats.CDF{}, &stats.CDF{}
	for _, servers := range perFQDN {
		ipsPerFQDN.Add(float64(len(servers)))
	}
	for _, names := range perServer {
		fqdnsPerIP.Add(float64(len(names)))
	}
	return ipsPerFQDN, fqdnsPerIP
}

// SingletonShares returns the fraction of FQDNs served by exactly one
// address and the fraction of addresses serving exactly one FQDN — the two
// headline numbers of Fig. 3 (82% and 73% in the paper).
func SingletonShares(db *flowdb.DB) (fqdnSingle, ipSingle float64) {
	a, b := FanoutCDFs(db)
	if a.Len() > 0 {
		fqdnSingle = a.At(1)
	}
	if b.Len() > 0 {
		ipSingle = b.At(1)
	}
	return fqdnSingle, ipSingle
}
