package resolver

import (
	"cmp"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// Differential fuzz for the flat swiss pair-table: the reference model is
// orderedRef (reference_test.go) — the paper's two-level structure with a
// sorted-slice inner map over a plain FIFO Clist. The resolver and the
// model must agree on every lookup, on the client count after every
// insert, on every statistic, on every LookupAll history list and on the
// Snapshot (FIFO order, each entry's live servers in link order), through
// arbitrary insert/lookup sequences with heavy Clist eviction. The address
// pools hold 4-in-6 twins, which hash like their IPv4 forms but are
// distinct keys, and an insert may name the same server twice, as a DNS
// answer can.

var (
	fzClients = []netip.Addr{
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"),
		netip.MustParseAddr("10.7.7.7"),
		netip.MustParseAddr("fd00::1"),
		netip.MustParseAddr("::ffff:10.0.0.1"),
	}
	fzServers = []netip.Addr{
		netip.MustParseAddr("203.0.113.1"),
		netip.MustParseAddr("203.0.113.2"),
		netip.MustParseAddr("203.0.113.3"),
		netip.MustParseAddr("198.51.100.4"),
		netip.MustParseAddr("2001:db8::5"),
		netip.MustParseAddr("::ffff:203.0.113.1"),
	}
)

// runDifferential replays ops against the resolver and the model and cross-checks
// behaviour after every operation; see the file comment for the contract.
// An insert names 1..maxAddrs servers.
func runDifferential(t *testing.T, data []byte, clistSize, history, maxAddrs int) {
	t.Helper()
	cfg := Config{ClistSize: clistSize, History: history}
	h, o := New(cfg), newOrderedRef(cfg)

	at := time.Duration(0)
	servers := make([]netip.Addr, 0, maxAddrs)
	for i := 0; i+3 <= len(data) && i < 3*4096; i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		at += time.Duration(b2&0x0F) * time.Second
		// b0: bit 7 lookup, low bits the client. b1: bits 7-6 the insert's
		// server count, bit 5 a repeated server, bits 4-0 the first server.
		// b2: FQDN and time step.
		cl := fzClients[int(b0&0x7F)%len(fzClients)]
		if b0&0x80 != 0 {
			// Lookup op: both structures must agree.
			sv := fzServers[int(b1&0x1F)%len(fzServers)]
			hf, hok := h.Lookup(cl, sv)
			of, ook := o.Lookup(cl, sv)
			if hok != ook || hf != of {
				t.Fatalf("op %d: Lookup(%v,%v) = %q,%v (flat) vs %q,%v (ordered)", i/3, cl, sv, hf, hok, of, ook)
			}
			continue
		}
		// Insert op: 1..maxAddrs consecutive pool servers, the last
		// replaced by a repeat of the first when bit 5 is set; FQDN from a
		// small pool.
		servers = servers[:0]
		n := 1 + int(b1>>6)%maxAddrs
		for k := 0; k < n; k++ {
			servers = append(servers, fzServers[(int(b1&0x1F)+k)%len(fzServers)])
		}
		if b1&0x20 != 0 && n > 1 {
			servers[n-1] = servers[0]
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
	if hs, os := h.Snapshot(), o.snapshot(); !reflect.DeepEqual(hs, os) {
		t.Fatalf("snapshots diverge:\n flat    %v\n ordered %v", hs, os)
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
		runDifferential(t, data, 1+int(clist)%64, int(history)%3, 3)
	})
}

// TestFlatVsOrderedSeeded exercises the differential contract on plain
// `go test` runs with fixed pseudo-random streams across Clist/history
// shapes that force heavy eviction, recycling, and history promotion.
func TestFlatVsOrderedSeeded(t *testing.T) {
	for _, tc := range []struct {
		clist, history int
		// twins draws every client from the twin pair 10.0.0.1 /
		// ::ffff:10.0.0.1 and every first server from 203.0.113.1 /
		// ::ffff:203.0.113.1.
		twins bool
		// addrs is the most servers one insert names (0 means 3).
		addrs int
	}{
		{1, 0, false, 0}, {3, 0, false, 0}, {8, 0, false, 0}, {64, 0, false, 0}, {2, 1, false, 0}, {5, 2, false, 0}, {16, 2, false, 0},
		{6, 2, true, 0},
		// Responses of up to four addresses, each counted in and out of
		// the client count at once, with history promotion and eviction.
		{1, 2, false, 4},
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
		addrs := cmp.Or(tc.addrs, 3)
		name := fmt.Sprintf("clist=%d,history=%d", tc.clist, tc.history)
		if tc.addrs != 0 {
			name += fmt.Sprintf(",addrs=%d", tc.addrs)
		}
		if tc.twins {
			name += ",twins+dups"
			for i := 0; i+3 <= len(data); i += 3 {
				data[i] = data[i]&0x80 | (data[i]&1)*4
				data[i+1] = data[i+1]&0xE0 | (data[i+1]&1)*5
			}
		}
		t.Run(name, func(t *testing.T) {
			runDifferential(t, data, tc.clist, tc.history, addrs)
		})
	}
}

// TestEntriesAliveIncremental: Stats().EntriesAlive must equal a scan of
// the Clist for entries that still hold their slot at any point — a slot
// recycled while the ring still names it would drop out of the scan.
func TestEntriesAliveIncremental(t *testing.T) {
	r := New(Config{ClistSize: 8})
	scan := func() int {
		n := 0
		for _, s := range r.clist {
			if r.entries.At(s).names > 0 {
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
