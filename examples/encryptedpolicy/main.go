// Encrypted-traffic policy enforcement: the scenario from the paper's
// introduction. Zynga and Dropbox both run TLS on shared cloud addresses,
// so neither DPI signatures nor IP filters can separate them — but the
// DNS-derived label can, and it is available at the SYN, before any
// payload byte, so even the handshake can be policed.
//
// The enforcer is written as a dnhunter.Sink attached with WithSink: the
// Engine delivers every flow-start tag event to it, serialized even when
// the pipeline runs sharded across cores.
package main

import (
	"context"
	"fmt"
	"log"

	dnhunter "repro"
)

// enforcer is the online policy hook: a Sink that decides at flow start.
// It embeds NopSink and overrides only the event it cares about; the
// Engine serializes sink calls, so plain counters are safe at any shard
// count.
type enforcer struct {
	dnhunter.NopSink
	policy                       *dnhunter.Policy
	blocked, prioritized, preSYN int
}

// OnTag fires when a flow's FIRST packet arrives; e.SYN says we caught the
// three-way handshake itself.
func (e *enforcer) OnTag(ev dnhunter.TagEvent) {
	switch e.policy.Decide(ev.Label) {
	case dnhunter.ActionBlock:
		e.blocked++
		if ev.SYN {
			e.preSYN++
		}
	case dnhunter.ActionPrioritize:
		e.prioritized++
	}
}

func main() {
	policy := dnhunter.NewPolicy(
		dnhunter.Rule{Pattern: "zynga.com", Action: dnhunter.ActionBlock},
		dnhunter.Rule{Pattern: "dropbox.com", Action: dnhunter.ActionPrioritize},
		dnhunter.Rule{Pattern: "youtube.com", Action: dnhunter.ActionDeprioritize},
	)

	trace := dnhunter.GenerateTrace("EU1-FTTH", 0.3, 7)

	enf := &enforcer{policy: policy}
	eng := dnhunter.NewEngine(
		dnhunter.WithShards(4),
		dnhunter.WithSink(enf),
	)
	res, err := eng.RunTrace(context.Background(), trace)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("flows: %d total, %d labeled\n", res.Stats.Flows, res.Stats.LabeledFlows)
	fmt.Printf("blocked (zynga.com): %d flows, %d of them at the SYN\n", enf.blocked, enf.preSYN)
	fmt.Printf("prioritized (dropbox.com): %d flows\n", enf.prioritized)

	// Show why DPI and IP filtering fail here: blocked and prioritized
	// flows come out of the same hosting organization's address block.
	hostOrgs := map[string][2]int{}
	var f dnhunter.LabeledFlow
	for i := range res.DB.Len() {
		res.DB.Load(i, &f)
		if !f.Labeled {
			continue
		}
		org, ok := trace.OrgDB.Lookup(f.Key.ServerIP)
		if !ok {
			continue
		}
		s := hostOrgs[org]
		switch policy.Decide(f.Label) {
		case dnhunter.ActionBlock:
			s[0]++
		case dnhunter.ActionPrioritize:
			s[1]++
		default:
			continue
		}
		hostOrgs[org] = s
	}
	for org, s := range hostOrgs {
		if s[0] > 0 && s[1] > 0 {
			fmt.Printf("hosting org %q carries %d blocked and %d prioritized flows\n", org, s[0], s[1])
			fmt.Println("(an address-block filter would have to block Dropbox to block Zynga)")
		}
	}

	fmt.Printf("\npolicy decisions: %v\n", policy.Decisions())
}
