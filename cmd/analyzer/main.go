// Command analyzer runs the off-line analytics (paper §4) over a labeled
// flow CSV produced by cmd/dnhunter.
//
// Usage:
//
//	analyzer -flows flows.csv -orgs trace.orgs spatial zynga.com
//	analyzer -flows flows.csv -orgs trace.orgs content amazon
//	analyzer -flows flows.csv tags 25
//	analyzer -flows flows.csv -orgs trace.orgs tree linkedin.com
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"repro/internal/analytics"
	"repro/internal/flowdb"
	"repro/internal/orgdb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyzer: ")
	flowsPath := flag.String("flows", "flows.csv", "labeled flow CSV from cmd/dnhunter")
	orgsPath := flag.String("orgs", "", "IP->organization table (needed for spatial/content/tree)")
	topK := flag.Int("k", 10, "how many results to print")
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: analyzer [flags] {spatial|content|tags|tree} <target>")
		os.Exit(2)
	}
	verb, target := args[0], args[1]

	f, err := os.Open(*flowsPath)
	if err != nil {
		log.Fatal(err)
	}
	db, err := flowdb.ReadCSV(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	var odb *orgdb.DB
	if *orgsPath != "" {
		g, err := os.Open(*orgsPath)
		if err != nil {
			log.Fatal(err)
		}
		odb, err = orgdb.ReadText(g)
		g.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	needOrgs := func() {
		if odb == nil {
			log.Fatal("this query needs -orgs")
		}
	}

	switch verb {
	case "spatial":
		// Algorithm 2: who serves this organization?
		needOrgs()
		res := analytics.SpatialDiscovery(db, odb, target)
		fmt.Printf("%s: %d flows across %d hosting orgs\n", res.SLD, res.TotalFlows, len(res.Hosts))
		for _, h := range res.Hosts {
			fmt.Printf("  %-14s %4d servers  %6d flows (%4.1f%%)  %d FQDNs\n",
				h.Org, h.Servers, h.Flows, 100*h.FlowShare, len(h.FQDNs))
		}
	case "content":
		// Algorithm 3: what does this hosting org serve?
		needOrgs()
		p := analytics.NewPipeline(analytics.NewExactTopContent(target, analytics.OrgLookupDB(odb), analytics.BySLD, *topK))
		p.ObserveDB(db)
		top, _ := p.Snapshot()[0].Result.([]analytics.ContentShare)
		fmt.Printf("top %d domains hosted on %s:\n", len(top), target)
		for i, c := range top {
			fmt.Printf("  %2d. %-28s %6d flows (%4.1f%%)\n", i+1, c.Name, c.Flows, 100*c.Share)
		}
	case "tags":
		// Algorithm 4: what runs on this port?
		port, err := strconv.Atoi(target)
		if err != nil || port < 0 || port > 65535 {
			log.Fatalf("bad port %q", target)
		}
		tags := analytics.ExtractTags(db, uint16(port), *topK)
		fmt.Printf("port %d: %s\n", port, analytics.FormatTags(tags))
	case "tree":
		// Figs. 7/8: the organization's domain-structure tree.
		needOrgs()
		tree := analytics.DomainTree(db, odb, target)
		fmt.Print(tree.Render())
	default:
		log.Fatalf("unknown query %q", verb)
	}
}
