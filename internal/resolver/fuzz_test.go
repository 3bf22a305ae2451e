package resolver

import (
	"cmp"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/swiss"
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
// answer can. After every operation the entry slab must hold exactly the
// entries a node or a history cell names (checkSlab): a superseded entry
// leaves it at once, and only a tombstone keeps its Clist place.

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
			checkSlab(t, h, i/3)
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
		checkSlab(t, h, i/3)
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

// checkSlab asserts that r's entry slab holds exactly the entries a node or
// a history cell names, and that each one's name count and Clist place are
// what the nodes, the cells and the ring say. Every node has a client and a
// server from the fuzz pools, so their cross product reaches them all.
func checkSlab(t *testing.T, r *Resolver, op int) {
	t.Helper()
	named := map[uint32]uint32{} // entry slot → nodes and history cells naming it
	ft := r.flat
	for _, cl := range fzClients {
		for _, sv := range fzServers {
			var k pairKey
			slot := ft.find(&k, ft.key(&k, cl, sv))
			if slot == noSlot {
				continue
			}
			n := ft.nodes.At(slot)
			named[n.entry]++
			for c := n.older; c != noSlot; c = r.hist.At(c).next {
				named[r.hist.At(c).entry]++
			}
		}
	}
	filed := map[uint32]uint32{} // entry slot → Clist index
	for i, s := range r.clist {
		if s != noSlot {
			filed[s] = uint32(i)
		}
	}
	live := liveSlots(&r.entries)
	for s := range live {
		if named[s] == 0 {
			e := r.entries.At(s)
			t.Fatalf("op %d: entry %d (%q, Clist index %d) is in the slab but no node or history cell names it", op, s, r.names.Str(e.FQDN), int32(e.pos))
		}
	}
	for s, n := range named {
		if !live[s] {
			t.Fatalf("op %d: entry %d is named by %d nodes or cells but was freed", op, s, n)
		}
		pos, ok := filed[s]
		if ok {
			n++
		} else {
			pos = noSlot
		}
		if e := r.entries.At(s); e.names != n || e.pos != pos {
			t.Fatalf("op %d: entry %d (%q) has names=%d pos=%d, want %d and %d", op, s, r.names.Str(e.FQDN), e.names, int32(e.pos), n, int32(pos))
		}
	}
}

// liveSlots returns the indices s has handed out and not taken back. The
// slab keeps no per-entry flag, so this reads its fresh-index counter and
// free list.
func liveSlots[T any](s *swiss.Slab[T]) map[uint32]bool {
	v := reflect.ValueOf(s).Elem()
	live := map[uint32]bool{}
	for i := range uint32(v.FieldByName("n").Uint()) {
		live[i] = true
	}
	free := v.FieldByName("free")
	for i := range free.Len() {
		delete(live, uint32(free.Index(i).Uint()))
	}
	return live
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
// recycled while the ring still names it would drop out of the scan. A
// tombstone (noSlot) is a filled slot whose entry was freed once
// superseded: it counts without touching the slab.
func TestEntriesAliveIncremental(t *testing.T) {
	r := New(Config{ClistSize: 8})
	scan := func() int {
		n := 0
		for i, s := range r.clist {
			if s == noSlot {
				n++
			} else if e := r.entries.At(s); e.names > 0 && e.pos == uint32(i) {
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
