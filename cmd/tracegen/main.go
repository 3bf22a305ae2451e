// Command tracegen synthesizes one of the paper's named captures and
// writes it as a pcap file plus sidecars: the IP→organization table (the
// MaxMind substitute), the synthetic PTR zone, and the ground-truth flow
// labels.
//
// Usage:
//
//	tracegen -name EU1-FTTH -scale 0.5 -seed 1 -out trace
//
// writes trace.pcap, trace.orgs, trace.ptr, trace.truth.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/netio"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	name := flag.String("name", synth.NameEU1FTTH, "scenario: US-3G, EU2-ADSL, EU1-ADSL1, EU1-ADSL2, EU1-FTTH, quick")
	scale := flag.Float64("scale", 1.0, "client-count scale factor")
	seed := flag.Uint64("seed", 1, "random seed")
	out := flag.String("out", "trace", "output file prefix")
	flag.Parse()

	var sc synth.Scenario
	if *name == "quick" {
		sc = synth.QuickScenario(*seed)
	} else {
		sc = synth.NamedScenario(*name, *scale, *seed)
	}
	tr := synth.Generate(sc)

	if err := writePcap(*out+".pcap", tr); err != nil {
		log.Fatal(err)
	}
	if err := writeOrgs(*out+".orgs", tr); err != nil {
		log.Fatal(err)
	}
	if err := writePTR(*out+".ptr", tr); err != nil {
		log.Fatal(err)
	}
	if err := writeTruth(*out+".truth", tr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d packets, %d flows, %d DNS responses -> %s.{pcap,orgs,ptr,truth}\n",
		sc.Name, len(tr.Packets), tr.Flows, tr.DNSResponses, *out)
}

func writePcap(path string, tr *synth.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := netio.NewWriter(f)
	for _, p := range tr.Packets {
		if err := w.WritePacket(p); err != nil {
			return err
		}
	}
	return w.Flush()
}

func writeOrgs(path string, tr *synth.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.OrgDB.WriteText(f)
}

func writePTR(path string, tr *synth.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	keys := make([]string, 0, len(tr.PTRZone))
	byAddr := make(map[string]string, len(tr.PTRZone))
	for addr, ptr := range tr.PTRZone {
		keys = append(keys, addr.String())
		byAddr[addr.String()] = ptr
	}
	sort.Strings(keys)
	for _, k := range keys {
		ptr := byAddr[k]
		if ptr == "" {
			ptr = "-"
		}
		fmt.Fprintf(w, "%s %s\n", k, ptr)
	}
	return w.Flush()
}

func writeTruth(path string, tr *synth.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	lines := make([]string, 0, len(tr.Truth))
	for key, fqdn := range tr.Truth {
		if fqdn == "" {
			fqdn = "-"
		}
		lines = append(lines, fmt.Sprintf("%s:%d %s:%d %s",
			key.ClientIP, key.ClientPort, key.ServerIP, key.ServerPort, fqdn))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	return w.Flush()
}
