package resolver

import (
	"fmt"
	"net/netip"
	"testing"
	"time"
)

// Differential fuzz for the flat swiss pair-table: the reference model is
// orderedRef (reference_test.go) — the paper's two-level structure with a
// sorted-slice inner map over a plain FIFO Clist. The resolver and the
// model must agree on every lookup, on the client count after every
// insert, on every statistic and on every LookupAll history list, through
// arbitrary insert/lookup sequences with heavy Clist eviction.

var (
	fzClients = []netip.Addr{
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"),
		netip.MustParseAddr("10.7.7.7"),
		netip.MustParseAddr("fd00::1"),
	}
	fzServers = []netip.Addr{
		netip.MustParseAddr("203.0.113.1"),
		netip.MustParseAddr("203.0.113.2"),
		netip.MustParseAddr("203.0.113.3"),
		netip.MustParseAddr("198.51.100.4"),
		netip.MustParseAddr("2001:db8::5"),
	}
)

// runDifferential replays ops against the resolver and the model and cross-checks
// behaviour after every operation; see the file comment for the contract.
func runDifferential(t *testing.T, data []byte, clistSize, history int) {
	t.Helper()
	cfg := Config{ClistSize: clistSize, History: history}
	h, o := New(cfg), newOrderedRef(cfg)

	at := time.Duration(0)
	servers := make([]netip.Addr, 0, 3)
	for i := 0; i+3 <= len(data) && i < 3*4096; i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		at += time.Duration(b2&0x0F) * time.Second
		cl := fzClients[int(b0)%len(fzClients)]
		if b0&0x80 != 0 {
			// Lookup op: both structures must agree.
			sv := fzServers[int(b1)%len(fzServers)]
			hf, hok := h.Lookup(cl, sv)
			of, ook := o.Lookup(cl, sv)
			if hok != ook || hf != of {
				t.Fatalf("op %d: Lookup(%v,%v) = %q,%v (flat) vs %q,%v (ordered)", i/3, cl, sv, hf, hok, of, ook)
			}
			continue
		}
		// Insert op: 1..3 distinct servers, FQDN from a small pool.
		servers = servers[:0]
		n := 1 + int(b1>>6)%3
		for k := 0; k < n; k++ {
			servers = append(servers, fzServers[(int(b1)+k)%len(fzServers)])
		}
		fq := fmt.Sprintf("h%d.example.com", int(b2>>4))
		h.Insert(cl, fq, servers, at)
		o.Insert(cl, fq, servers, at)
		if h.Clients() != o.Clients() {
			t.Fatalf("op %d: clients %d (flat) vs %d (ordered)", i/3, h.Clients(), o.Clients())
		}
	}
	if hs, os := h.Stats(), o.Stats(); hs != os {
		t.Fatalf("stats diverge:\n flat    %+v\n ordered %+v", hs, os)
	}
	// Full cross-product sweep, including LookupAll history contents.
	for _, cl := range fzClients {
		for _, sv := range fzServers {
			ha, oa := h.LookupAll(cl, sv), o.LookupAll(cl, sv)
			if len(ha) != len(oa) {
				t.Fatalf("LookupAll(%v,%v): %v vs %v", cl, sv, ha, oa)
			}
			for k := range ha {
				if ha[k] != oa[k] {
					t.Fatalf("LookupAll(%v,%v): %v vs %v", cl, sv, ha, oa)
				}
			}
		}
	}
}

// FuzzFlatVsOrderedResolver pits the flat open-addressing table against the
// two-level reference model over random insert/lookup/evict sequences.
func FuzzFlatVsOrderedResolver(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0x12, 0x81, 0x00, 0x00}, uint8(4), uint8(0))
	f.Add([]byte{0x00, 0x00, 0x10, 0x00, 0x40, 0x20, 0x80, 0x00, 0x00}, uint8(2), uint8(2))
	f.Add([]byte{0x03, 0xC0, 0xFF, 0x83, 0x04, 0x01, 0x02, 0x80, 0x33}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, clist, history uint8) {
		runDifferential(t, data, 1+int(clist)%64, int(history)%3)
	})
}

// TestFlatVsOrderedSeeded exercises the differential contract on plain
// `go test` runs with fixed pseudo-random streams across Clist/history
// shapes that force heavy eviction, recycling, and history promotion.
func TestFlatVsOrderedSeeded(t *testing.T) {
	for _, tc := range []struct{ clist, history int }{
		{1, 0}, {3, 0}, {8, 0}, {64, 0}, {2, 1}, {5, 2}, {16, 2},
	} {
		data := make([]byte, 3*2048)
		s := uint64(tc.clist*31 + tc.history*7 + 1)
		for i := range data {
			s += 0x9E3779B97F4A7C15
			z := s
			z ^= z >> 30
			z *= 0xBF58476D1CE4E5B9
			z ^= z >> 27
			data[i] = byte(z >> 40)
		}
		t.Run(fmt.Sprintf("clist=%d,history=%d", tc.clist, tc.history), func(t *testing.T) {
			runDifferential(t, data, tc.clist, tc.history)
		})
	}
}

// TestEntriesAliveIncremental pins the satellite fix: Stats().EntriesAlive
// is maintained incrementally and must equal a full Clist scan at any
// point.
func TestEntriesAliveIncremental(t *testing.T) {
	r := New(Config{ClistSize: 8})
	scan := func() int {
		n := 0
		for _, e := range r.clist {
			if e != nil && e.live {
				n++
			}
		}
		return n
	}
	for i := 0; i < 100; i++ {
		cl := fzClients[i%len(fzClients)]
		sv := fzServers[i%len(fzServers)]
		r.Insert(cl, fmt.Sprintf("h%d.example.com", i%5), []netip.Addr{sv}, time.Duration(i))
		if got, want := r.Stats().EntriesAlive, scan(); got != want {
			t.Fatalf("insert %d: EntriesAlive = %d, scan = %d", i, got, want)
		}
	}
}
