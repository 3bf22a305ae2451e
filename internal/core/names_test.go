package core

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/names"
	"repro/internal/resolver"
	"repro/internal/synth"
)

// forceSweep files names nothing holds in nt until its Collect sweeps,
// which frees every name no holder keeps.
func forceSweep(nt *names.Table) {
	var buf []byte
	first := nt.Intern([]byte("sweep-junk-0"))
	for i := 1; nt.Str(first) != ""; i++ {
		buf = fmt.Appendf(buf[:0], "sweep-junk-%d", i)
		nt.Intern(buf)
		nt.Collect()
	}
}

// TestNameTableBalanced replays a trace through one pipeline whose
// 128-entry Clist evicts, and holds its name table against what keeps
// names in it. After Close no flow is live, so the Clist entries are the
// only holders: a sweep keeps exactly the names the live entries hold.
// Once fresh responses have evicted every entry, a sweep frees every
// name the evicted entries held: an entry freed keeps no name.
func TestNameTableBalanced(t *testing.T) {
	tr := synth.Generate(synth.NamedScenario(synth.NameEU1FTTH, 0.5, 3))
	const clist = 128
	h := New(Config{Resolver: resolver.Config{ClistSize: clist}})
	for _, p := range tr.Packets {
		h.HandlePacket(p)
	}
	h.Close()
	if h.res.Stats().Evictions == 0 || h.table.Active() != 0 {
		t.Fatalf("%d evictions, %d live flows: the replay does not evict or Close left flows", h.res.Stats().Evictions, h.table.Active())
	}
	check := func(what string) {
		t.Helper()
		held := map[string]bool{}
		for _, se := range h.res.Snapshot() {
			held[se.FQDN] = true
		}
		forceSweep(h.names)
		filed := 0
		for id := range h.names.End() {
			if s := h.names.Str(id); s != "" {
				filed++
				if !held[s] {
					t.Errorf("%s: %q survives a sweep, but no Clist entry holds it", what, s)
				}
			}
		}
		if filed != len(held) {
			t.Fatalf("%s: %d names survive a sweep, the Clist holds %d", what, filed, len(held))
		}
	}
	check("after the replay")
	client, server := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("192.0.2.1")
	for i := range clist {
		h.res.Insert(client, fmt.Sprintf("fresh%d.example", i), []netip.Addr{server}, 0)
	}
	check("after every entry was evicted")
	for _, se := range h.res.Snapshot() {
		if !strings.HasPrefix(se.FQDN, "fresh") {
			t.Fatalf("the Clist still holds %q", se.FQDN)
		}
	}
}
