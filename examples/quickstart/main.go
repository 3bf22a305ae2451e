// Quickstart: generate a small synthetic ISP trace, run the sharded
// DN-Hunter Engine over its packets, and print labeled flows plus the
// headline statistics — the minimal end-to-end tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"

	dnhunter "repro"
)

func main() {
	// A 30-minute synthetic capture: a couple dozen clients browsing the
	// modeled web (CDNs, clouds, mail, BitTorrent) behind one vantage point.
	trace := dnhunter.GenerateQuickTrace(42)
	fmt.Printf("trace: %d packets, %d flows, %d DNS responses\n\n",
		len(trace.Packets), trace.Flows, trace.DNSResponses)

	// Run the full pipeline: parse packets, replicate the clients' DNS
	// caches, tag each flow at its first packet. WithShards(-1) hashes
	// clients across one pipeline shard per CPU; the results are identical
	// to a single-threaded run.
	eng := dnhunter.NewEngine(dnhunter.WithShards(-1))
	res, err := eng.RunTrace(context.Background(), trace)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ran on %d shards\n\n", eng.Shards())
	fmt.Println("first ten labeled flows:")
	shown := 0
	var f dnhunter.LabeledFlow
	for i := range res.DB.Len() {
		res.DB.Load(i, &f)
		if !f.Labeled {
			continue
		}
		fmt.Printf("  %-46s -> %s\n", f.Key, f.Label)
		if shown++; shown == 10 {
			break
		}
	}

	st := res.Stats
	fmt.Printf("\nresolver: %s\n", st.Resolver)
	fmt.Printf("flows labeled: %d/%d (%.1f%%)\n",
		st.LabeledFlows, st.Flows, 100*float64(st.LabeledFlows)/float64(st.Flows))
	fmt.Printf("useless DNS (never followed by a flow): %.0f%%\n",
		100*st.UselessDNSFraction())

	// The tangled web in two numbers (paper Fig. 3): one scan counts the
	// distinct labels and server addresses.
	fqdns := map[string]bool{}
	servers := map[netip.Addr]bool{}
	for i := range res.DB.Len() {
		res.DB.Load(i, &f)
		if f.Labeled {
			fqdns[f.Label] = true
		}
		servers[f.Key.ServerIP] = true
	}
	fmt.Printf("observed %d FQDNs on %d server addresses\n", len(fqdns), len(servers))
}
