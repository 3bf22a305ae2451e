package analytics

import (
	"net/netip"
	"sort"

	"repro/internal/flowdb"
	"repro/internal/orgdb"
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

// ContentDiscovery implements Algorithm 3: given a server set (e.g. all
// addresses of one CDN), return the ranked content hosted there.
func ContentDiscovery(db *flowdb.DB, servers []netip.Addr, g Granularity, k int) []ContentShare {
	perClient := make(map[string]map[netip.Addr]int)
	flowsPer := make(map[string]int)
	total := 0
	for _, srv := range servers {
		for _, f := range db.ByServer(srv) {
			if !f.Labeled {
				continue
			}
			name := f.Label
			if g == BySLD {
				name = f.SLD
			}
			m, ok := perClient[name]
			if !ok {
				m = make(map[netip.Addr]int)
				perClient[name] = m
			}
			m[f.Key.ClientIP]++
			flowsPer[name]++
			total++
		}
	}
	out := make([]ContentShare, 0, len(flowsPer))
	for name, n := range flowsPer {
		cs := ContentShare{Name: name, Flows: n, Score: logScore(perClient[name])}
		if total > 0 {
			cs.Share = float64(n) / float64(total)
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

// ServersOfOrg returns every observed server address belonging to the given
// hosting organization, per the org database.
func ServersOfOrg(db *flowdb.DB, odb *orgdb.DB, org string) []netip.Addr {
	var out []netip.Addr
	for _, srv := range db.Servers() {
		if got, ok := odb.Lookup(srv); ok && got == org {
			out = append(out, srv)
		}
	}
	return out
}

// FanoutCDFs computes Fig. 3: the distribution of (a) how many server
// addresses each FQDN is served by and (b) how many FQDNs each server
// address serves.
func FanoutCDFs(db *flowdb.DB) (ipsPerFQDN, fqdnsPerIP *stats.CDF) {
	ipsPerFQDN = &stats.CDF{}
	fqdnsPerIP = &stats.CDF{}
	for _, fqdn := range db.FQDNs() {
		ipsPerFQDN.Add(float64(len(db.ServersOfFQDN(fqdn))))
	}
	perServer := make(map[netip.Addr]map[string]struct{})
	for i := range db.Len() {
		f := db.At(i)
		if !f.Labeled {
			continue
		}
		m, ok := perServer[f.Key.ServerIP]
		if !ok {
			m = make(map[string]struct{})
			perServer[f.Key.ServerIP] = m
		}
		m[f.Label] = struct{}{}
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
