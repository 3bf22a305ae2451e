package analytics

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"repro/internal/flowdb"
	"repro/internal/orgdb"
	"repro/internal/stats"
)

// SpatialResult answers Algorithm 2 for one organization: which servers —
// grouped by the hosting organization — deliver each of its FQDNs, and how
// flows split across them.
type SpatialResult struct {
	SLD string
	// PerFQDN maps each FQDN under the SLD to its serving addresses.
	PerFQDN map[string][]netip.Addr
	// Hosts aggregates by hosting organization (Fig. 7/8's rectangles).
	Hosts []HostShare
	// TotalFlows is the number of labeled flows to the SLD.
	TotalFlows int
}

// HostShare is one hosting org's slice of an organization's traffic.
type HostShare struct {
	Org       string
	Servers   int
	Flows     int
	FlowShare float64
	// FQDNs served from this host org, sorted.
	FQDNs []string
}

// SpatialDiscovery implements Algorithm 2: given a target name, extract the
// second-level domain, pull every labeled flow to that organization (from
// all vantages the DB holds), and rank the serving infrastructure. The org
// database plays the whois/MaxMind role.
func SpatialDiscovery(db *flowdb.DB, odb *orgdb.DB, name string) *SpatialResult {
	sld := stats.SLD(name)
	lookup := OrgLookupDB(odb)
	agg := newSpatialAgg()
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		if f.Labeled && f.SLD == sld {
			agg.add(OrgOrUnknown(lookup, f.Vantage, f.Key.ServerIP), f.Key.ServerIP, f.Label)
		}
	}
	return agg.result(sld)
}

// spatialAgg is Algorithm 2's aggregate over one SLD's labeled flows:
// SpatialDiscovery keeps one for a whole DB, the cross-vantage query one
// per vantage.
type spatialAgg struct {
	total   int
	perOrg  map[string]*hostAgg
	perFQDN map[string]map[netip.Addr]struct{}
	servers map[netip.Addr]struct{}
}

// hostAgg is one hosting org's part of a spatialAgg: the servers it
// delivered the SLD's flows from, the FQDNs among them, and the flow count.
type hostAgg struct {
	servers map[netip.Addr]struct{}
	fqdns   map[string]struct{}
	flows   int
}

func newSpatialAgg() *spatialAgg {
	return &spatialAgg{
		perOrg:  map[string]*hostAgg{},
		perFQDN: map[string]map[netip.Addr]struct{}{},
		servers: map[netip.Addr]struct{}{},
	}
}

// add counts one flow for fqdn, delivered by server of hosting org org.
func (a *spatialAgg) add(org string, server netip.Addr, fqdn string) {
	h, ok := a.perOrg[org]
	if !ok {
		h = &hostAgg{servers: map[netip.Addr]struct{}{}, fqdns: map[string]struct{}{}}
		a.perOrg[org] = h
	}
	h.servers[server] = struct{}{}
	h.fqdns[fqdn] = struct{}{}
	h.flows++
	addToSet(a.perFQDN, fqdn, server)
	a.servers[server] = struct{}{}
	a.total++
}

// result renders the aggregate as Algorithm 2's answer for sld.
func (a *spatialAgg) result(sld string) *SpatialResult {
	res := &SpatialResult{SLD: sld, PerFQDN: make(map[string][]netip.Addr, len(a.perFQDN)), TotalFlows: a.total}
	for fqdn, set := range a.perFQDN {
		res.PerFQDN[fqdn] = slices.SortedFunc(maps.Keys(set), netip.Addr.Compare)
	}
	res.Hosts = hostShares(a.perOrg, a.total)
	return res
}

// hostShares ranks per-org aggregates by flows (ties by org), each with
// its share of total flows and its FQDNs sorted.
func hostShares(perOrg map[string]*hostAgg, total int) []HostShare {
	var out []HostShare
	for org, a := range perOrg {
		hs := HostShare{Org: org, Servers: len(a.servers), Flows: a.flows}
		if total > 0 {
			hs.FlowShare = float64(a.flows) / float64(total)
		}
		for f := range a.fqdns {
			hs.FQDNs = append(hs.FQDNs, f)
		}
		sort.Strings(hs.FQDNs)
		out = append(out, hs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flows != out[j].Flows {
			return out[i].Flows > out[j].Flows
		}
		return out[i].Org < out[j].Org
	})
	return out
}

// TreeNode is one token of a domain-structure tree (Figs. 7/8): FQDNs of an
// organization merged into a token trie, numbers generalized to N, with
// hosting info at the leaves.
type TreeNode struct {
	Token    string
	Children []*TreeNode
	// Flows through this node's subtree.
	Flows int
	// Orgs serving leaves below this node (leaf nodes typically have one).
	Orgs map[string]int
}

// DomainTree builds the token trie for an SLD. Labels are read from the TLD
// inward (the paper's trees hang sub-labels beneath the SLD), and numeric
// runs collapse ("media1", "media2" → "mediaN").
func DomainTree(db *flowdb.DB, odb *orgdb.DB, name string) *TreeNode {
	sld := stats.SLD(name)
	root := &TreeNode{Token: sld, Orgs: map[string]int{}}
	lookup := OrgLookupDB(odb)
	var f flowdb.LabeledFlow
	for i := range db.Len() {
		db.Load(i, &f)
		if !f.Labeled || f.SLD != sld {
			continue
		}
		prefix := stats.HostPrefix(f.Label)
		labels := stats.SplitFQDN(prefix)
		// Walk from the label closest to the SLD outwards.
		node := root
		node.Flows++
		org := OrgOrUnknown(lookup, f.Vantage, f.Key.ServerIP)
		root.Orgs[org]++
		for i := len(labels) - 1; i >= 0; i-- {
			tok := stats.GeneralizeDigits(labels[i])
			child := node.findChild(tok)
			if child == nil {
				child = &TreeNode{Token: tok, Orgs: map[string]int{}}
				node.Children = append(node.Children, child)
			}
			child.Flows++
			child.Orgs[org]++
			node = child
		}
	}
	root.sortRec()
	return root
}

func (n *TreeNode) findChild(tok string) *TreeNode {
	for _, c := range n.Children {
		if c.Token == tok {
			return c
		}
	}
	return nil
}

func (n *TreeNode) sortRec() {
	sort.Slice(n.Children, func(i, j int) bool {
		if n.Children[i].Flows != n.Children[j].Flows {
			return n.Children[i].Flows > n.Children[j].Flows
		}
		return n.Children[i].Token < n.Children[j].Token
	})
	for _, c := range n.Children {
		c.sortRec()
	}
}

// DominantOrg returns the hosting org carrying most of the node's flows.
func (n *TreeNode) DominantOrg() string {
	best, bestN := "", -1
	for org, c := range n.Orgs {
		if c > bestN || (c == bestN && org < best) {
			best, bestN = org, c
		}
	}
	return best
}

// Render prints the tree with flow shares, a text stand-in for Figs. 7/8.
func (n *TreeNode) Render() string {
	var b strings.Builder
	total := n.Flows
	if total == 0 {
		total = 1
	}
	var walk func(node *TreeNode, depth int)
	walk = func(node *TreeNode, depth int) {
		fmt.Fprintf(&b, "%s%s [%d flows, %.0f%%, %s]\n",
			strings.Repeat("  ", depth), node.Token, node.Flows,
			100*float64(node.Flows)/float64(total), node.DominantOrg())
		for _, c := range node.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// VantageData bundles one vantage point's pipeline output for the
// cross-vantage analytics: its (partition of the) labeled-flow database and
// its IP → organization table. Multi-source Engine runs produce one per
// registered source (MultiResult.PerVantage).
type VantageData struct {
	Name string
	DB   *flowdb.DB
	Orgs *orgdb.DB
}

// ProviderFootprint compares hosting-infrastructure usage across vantage
// points: for each hosting organization, the share of each vantage's
// labeled flows it served. It is the aggregate behind the paper's
// US-vs-EU observations (Table 5, Fig. 9): the same content arrives via
// different CDNs depending on where the client sits.
type ProviderFootprint struct {
	// Vantages in input order.
	Vantages []string
	// Orgs is the union of hosting orgs, ranked by total flow count
	// across vantages (ties alphabetical), truncated to the requested k.
	Orgs []string
	// Share maps vantage → hosting org → fraction of that vantage's
	// labeled flows.
	Share map[string]map[string]float64
	// Servers maps vantage → hosting org → distinct server addresses.
	Servers map[string]map[string]int
	// LabeledFlows counts each vantage's labeled flows (the denominators).
	LabeledFlows map[string]int
}

// Render prints the footprint as a hosting-org × vantage share table.
func (pf *ProviderFootprint) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "host org")
	for _, v := range pf.Vantages {
		fmt.Fprintf(&b, " %17s", v)
	}
	b.WriteByte('\n')
	for _, org := range pf.Orgs {
		fmt.Fprintf(&b, "%-14s", org)
		for _, v := range pf.Vantages {
			fmt.Fprintf(&b, "  %5.1f%% (%4d ip)", 100*pf.Share[v][org], pf.Servers[v][org])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-14s", "labeled flows")
	for _, v := range pf.Vantages {
		fmt.Fprintf(&b, " %17d", pf.LabeledFlows[v])
	}
	b.WriteByte('\n')
	return b.String()
}

// CrossVantage answers Algorithm 2 for one content organization at several
// vantage points at once, plus the pairwise overlap of the serving
// infrastructure — how much of the CDN mix is shared between vantages.
type CrossVantage struct {
	SLD      string
	Vantages []string
	// Per holds each vantage's spatial-discovery result for the SLD.
	Per map[string]*SpatialResult
	// HostOverlap[i][j] is the Jaccard similarity of the hosting-org sets
	// observed at vantages i and j (1 = same CDN mix, 0 = disjoint).
	HostOverlap [][]float64
	// ServerOverlap[i][j] is the Jaccard similarity of the concrete server
	// address sets (usually far lower than HostOverlap: the same CDN
	// serves each geography from different racks).
	ServerOverlap [][]float64
}

// jaccard is |a∩b| / |a∪b|; two empty sets count as identical.
func jaccard[K comparable](a, b map[K]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if _, ok := b[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Render prints the per-vantage host mix and both overlap matrices.
func (cv *CrossVantage) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", cv.SLD)
	for _, v := range cv.Vantages {
		res := cv.Per[v]
		fmt.Fprintf(&b, "  %-6s %5d flows:", v, res.TotalFlows)
		for i, hs := range res.Hosts {
			if i == 4 {
				fmt.Fprintf(&b, " …")
				break
			}
			fmt.Fprintf(&b, " %s %.0f%%", hs.Org, 100*hs.FlowShare)
		}
		b.WriteByte('\n')
	}
	writeMatrix := func(title string, m [][]float64) {
		fmt.Fprintf(&b, "  %s\n  %-8s", title, "")
		for _, v := range cv.Vantages {
			fmt.Fprintf(&b, " %6s", v)
		}
		b.WriteByte('\n')
		for i, v := range cv.Vantages {
			fmt.Fprintf(&b, "  %-8s", v)
			for j := range cv.Vantages {
				fmt.Fprintf(&b, " %6.2f", m[i][j])
			}
			b.WriteByte('\n')
		}
	}
	writeMatrix("host-org overlap (Jaccard):", cv.HostOverlap)
	writeMatrix("server-IP overlap (Jaccard):", cv.ServerOverlap)
	return b.String()
}

// Heatmap is the Fig. 9 structure: for one content organization, the share
// of flows served by each hosting org in each trace.
type Heatmap struct {
	SLD string
	// Rows: trace name -> hosting org -> flow share in that trace.
	Rows map[string]map[string]float64
	// HostOrgs is the union of hosting orgs across rows, "SELF" first.
	HostOrgs []string
}

// BuildHeatmap aggregates spatial results from several traces. self names
// the org's own hosting provider (mapped to "SELF" as in the paper).
func BuildHeatmap(sld, self string, perTrace map[string]*SpatialResult) *Heatmap {
	h := &Heatmap{SLD: sld, Rows: make(map[string]map[string]float64)}
	set := map[string]struct{}{}
	for trace, res := range perTrace {
		row := make(map[string]float64)
		for _, hs := range res.Hosts {
			org := hs.Org
			if org == self {
				org = "SELF"
			}
			row[org] += hs.FlowShare
			set[org] = struct{}{}
		}
		h.Rows[trace] = row
	}
	if _, ok := set["SELF"]; ok {
		h.HostOrgs = append(h.HostOrgs, "SELF")
		delete(set, "SELF")
	}
	var rest []string
	for org := range set {
		rest = append(rest, org)
	}
	sort.Strings(rest)
	h.HostOrgs = append(h.HostOrgs, rest...)
	return h
}

// Render prints the heat map as a table of percentages.
func (h *Heatmap) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-12s", h.SLD, "")
	for _, org := range h.HostOrgs {
		fmt.Fprintf(&b, " %12s", org)
	}
	b.WriteByte('\n')
	var traces []string
	for t := range h.Rows {
		traces = append(traces, t)
	}
	sort.Strings(traces)
	for _, t := range traces {
		fmt.Fprintf(&b, "%-12s", t)
		for _, org := range h.HostOrgs {
			fmt.Fprintf(&b, " %11.1f%%", 100*h.Rows[t][org])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
