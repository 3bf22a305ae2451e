package resolver

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

var (
	c1 = netip.MustParseAddr("10.0.0.1")
	c2 = netip.MustParseAddr("10.0.0.2")
	s1 = netip.MustParseAddr("203.0.113.1")
	s2 = netip.MustParseAddr("203.0.113.2")
	s3 = netip.MustParseAddr("203.0.113.3")
)

func TestInsertLookup(t *testing.T) {
	r := New(Config{ClistSize: 8})
	r.Insert(c1, "itunes.apple.com", []netip.Addr{s1, s2}, time.Second)
	for _, s := range []netip.Addr{s1, s2} {
		got, ok := r.Lookup(c1, s)
		if !ok || got != "itunes.apple.com" {
			t.Fatalf("Lookup(%v) = %q, %v", s, got, ok)
		}
	}
	if _, ok := r.Lookup(c1, s3); ok {
		t.Fatal("unexpected hit for unqueried server")
	}
	if _, ok := r.Lookup(c2, s1); ok {
		t.Fatal("client isolation violated: c2 sees c1's resolution")
	}
}

func TestPerClientScoping(t *testing.T) {
	r := New(Config{ClistSize: 8})
	r.Insert(c1, "a.example.com", []netip.Addr{s1}, 0)
	r.Insert(c2, "b.example.com", []netip.Addr{s1}, 0)
	if got, _ := r.Lookup(c1, s1); got != "a.example.com" {
		t.Fatalf("c1 sees %q", got)
	}
	if got, _ := r.Lookup(c2, s1); got != "b.example.com" {
		t.Fatalf("c2 sees %q", got)
	}
}

func TestLastWriterWins(t *testing.T) {
	r := New(Config{ClistSize: 8})
	r.Insert(c1, "old.example.com", []netip.Addr{s1}, 0)
	r.Insert(c1, "new.example.com", []netip.Addr{s1}, time.Second)
	got, ok := r.Lookup(c1, s1)
	if !ok || got != "new.example.com" {
		t.Fatalf("Lookup = %q, %v", got, ok)
	}
	if r.Stats().Replaced != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestClistEviction(t *testing.T) {
	r := New(Config{ClistSize: 3})
	r.Insert(c1, "one.example.com", []netip.Addr{s1}, 0)
	r.Insert(c1, "two.example.com", []netip.Addr{s2}, 0)
	r.Insert(c1, "three.example.com", []netip.Addr{s3}, 0)
	// Fourth insert overwrites slot 0, evicting "one".
	r.Insert(c1, "four.example.com", []netip.Addr{netip.MustParseAddr("203.0.113.4")}, 0)
	if _, ok := r.Lookup(c1, s1); ok {
		t.Fatal("evicted entry still resolvable")
	}
	if got, ok := r.Lookup(c1, s2); !ok || got != "two.example.com" {
		t.Fatalf("entry two: %q %v", got, ok)
	}
	st := r.Stats()
	if st.Evictions != 1 || st.EvictedRefs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionSkipsReplacedRefs(t *testing.T) {
	// Entry A for (c1,s1) is displaced by entry B before A is evicted; A's
	// eviction must not remove B's key.
	r := New(Config{ClistSize: 2})
	r.Insert(c1, "a.example.com", []netip.Addr{s1}, 0) // slot 0
	r.Insert(c1, "b.example.com", []netip.Addr{s1}, 0) // slot 1, displaces A's ref
	// Slot 0 (A) is recycled now:
	r.Insert(c1, "c.example.com", []netip.Addr{s2}, 0)
	if got, ok := r.Lookup(c1, s1); !ok || got != "b.example.com" {
		t.Fatalf("Lookup = %q %v; eviction of displaced entry broke the map", got, ok)
	}
}

// TestClientRemovedWhenEmpty: evicting a client's only entry removes its
// key, so the table holds no key of that client.
func TestClientRemovedWhenEmpty(t *testing.T) {
	r := New(Config{ClistSize: 1})
	r.Insert(c1, "a.example.com", []netip.Addr{s1}, 0)
	r.Insert(c2, "b.example.com", []netip.Addr{s1}, 0) // evicts c1's only entry
	if _, ok := r.Lookup(c1, s1); ok {
		t.Fatal("c1's key survived the eviction of its only entry")
	}
	if n := r.flat.idx.Len(); n != 1 {
		t.Fatalf("%d keys after eviction, want 1 (c2's)", n)
	}
}

func TestMissAndHitStats(t *testing.T) {
	r := New(Config{ClistSize: 4})
	r.Insert(c1, "x.example.com", []netip.Addr{s1}, 0)
	r.Lookup(c1, s1)
	r.Lookup(c1, s2)
	r.Lookup(c2, s1)
	st := r.Stats()
	if st.Lookups != 3 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if hr := st.HitRatio(); hr < 0.33 || hr > 0.34 {
		t.Fatalf("hit ratio = %v", hr)
	}
}

func TestEmptyInsertIgnored(t *testing.T) {
	r := New(Config{ClistSize: 4})
	r.Insert(c1, "", []netip.Addr{s1}, 0)
	r.Insert(c1, "x.example.com", nil, 0)
	if st := r.Stats(); st.Responses != 2 || st.Addresses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := r.Lookup(c1, s1); ok {
		t.Fatal("empty insert should not resolve")
	}
}

func TestLookupEntryTimestamp(t *testing.T) {
	r := New(Config{ClistSize: 4})
	r.Insert(c1, "x.example.com", []netip.Addr{s1}, 42*time.Second)
	e, ok := r.LookupEntry(c1, s1)
	if !ok || e.At != 42*time.Second || r.names.Str(e.FQDN) != "x.example.com" {
		t.Fatalf("entry = %+v, %v", e, ok)
	}
}

func TestHistoryLookupAll(t *testing.T) {
	r := New(Config{ClistSize: 16, History: 2})
	r.Insert(c1, "first.example.com", []netip.Addr{s1}, 0)
	r.Insert(c1, "second.example.com", []netip.Addr{s1}, 0)
	r.Insert(c1, "third.example.com", []netip.Addr{s1}, 0)
	all := r.LookupAll(c1, s1)
	want := []string{"third.example.com", "second.example.com", "first.example.com"}
	if len(all) != 3 {
		t.Fatalf("LookupAll = %v", all)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("LookupAll = %v, want %v", all, want)
		}
	}
	// History bounded at 2.
	r.Insert(c1, "fourth.example.com", []netip.Addr{s1}, 0)
	if all := r.LookupAll(c1, s1); len(all) != 3 {
		t.Fatalf("history not bounded: %v", all)
	}
}

func TestHistoryPromotionOnEviction(t *testing.T) {
	r := New(Config{ClistSize: 2, History: 2})
	r.Insert(c1, "older.example.com", []netip.Addr{s1}, 0) // slot 0
	r.Insert(c1, "newer.example.com", []netip.Addr{s1}, 0) // slot 1; older kept in history
	// Recycle slot 0 is a no-op for the key (older is history), then slot 1
	// eviction must promote older back.
	r.Insert(c1, "pad1.example.com", []netip.Addr{s2}, 0) // slot 0: evicts nothing live? (older already displaced)
	r.Insert(c1, "pad2.example.com", []netip.Addr{s3}, 0) // slot 1: evicts newer -> promote older
	got, ok := r.Lookup(c1, s1)
	if !ok || got != "older.example.com" {
		t.Fatalf("Lookup = %q %v, want promoted history entry", got, ok)
	}
}

func TestLookupAllNoHistoryMode(t *testing.T) {
	r := New(Config{ClistSize: 8})
	r.Insert(c1, "a.example.com", []netip.Addr{s1}, 0)
	r.Insert(c1, "b.example.com", []netip.Addr{s1}, 0)
	if all := r.LookupAll(c1, s1); len(all) != 1 || all[0] != "b.example.com" {
		t.Fatalf("LookupAll = %v", all)
	}
	if all := r.LookupAll(c2, s1); all != nil {
		t.Fatalf("LookupAll for unknown client = %v", all)
	}
}

func TestOrderedMapKindBehavesIdentically(t *testing.T) {
	r := New(Config{ClistSize: 64})
	for i := 0; i < 50; i++ {
		srv := netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})
		r.Insert(c1, fmt.Sprintf("host%d.example.com", i), []netip.Addr{srv}, 0)
	}
	for i := 0; i < 50; i++ {
		srv := netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})
		got, ok := r.Lookup(c1, srv)
		if !ok || got != fmt.Sprintf("host%d.example.com", i) {
			t.Fatalf("Lookup(%v) = %q %v", srv, got, ok)
		}
	}
}

func TestDefaultClistSize(t *testing.T) {
	r := New(Config{})
	if r.L() != 1<<20 {
		t.Fatalf("default L = %d", r.L())
	}
}

func TestStatsString(t *testing.T) {
	if New(Config{ClistSize: 1}).Stats().String() == "" {
		t.Fatal("empty stats string")
	}
}

// TestStatsAdd: the per-shard merge sums every field, EntriesAlive
// included (shards partition clients and Clist entries).
func TestStatsAdd(t *testing.T) {
	a := Stats{Responses: 1, Addresses: 2, Replaced: 3, Evictions: 4, EvictedRefs: 5,
		Lookups: 6, Hits: 7, Misses: 8, EntriesAlive: 10}
	b := a
	b.Add(a)
	want := Stats{Responses: 2, Addresses: 4, Replaced: 6, Evictions: 8, EvictedRefs: 10,
		Lookups: 12, Hits: 14, Misses: 16, EntriesAlive: 20}
	if b != want {
		t.Fatalf("Add = %+v, want %+v", b, want)
	}
}

func TestQuickInvariantNoDanglingRefs(t *testing.T) {
	// Property: after any insert sequence, every lookup hit returns an
	// entry that is still in the Clist, and the number of live entries
	// never exceeds L.
	f := func(ops []uint16) bool {
		const L = 8
		r := New(Config{ClistSize: L})
		clients := []netip.Addr{c1, c2}
		servers := []netip.Addr{s1, s2, s3}
		for i, op := range ops {
			cl := clients[int(op)%len(clients)]
			sv := servers[int(op>>2)%len(servers)]
			fq := fmt.Sprintf("h%d.example.com", int(op)%5)
			r.Insert(cl, fq, []netip.Addr{sv}, time.Duration(i)*time.Second)
		}
		if alive := r.Stats().EntriesAlive; alive > L {
			return false
		}
		for _, cl := range clients {
			for _, sv := range servers {
				e, ok := r.LookupEntry(cl, sv)
				// A tombstone (noSlot) holds no entry: the hit must be a live slot.
				if ok && !slices.ContainsFunc(r.clist, func(s uint32) bool { return s != noSlot && r.entries.At(s) == e }) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHashAndOrderedAgree(t *testing.T) {
	// Property: the resolver and the two-level reference model produce
	// identical lookups and statistics for any insert sequence.
	f := func(ops []uint16) bool {
		h, o := New(Config{ClistSize: 16}), newOrderedRef(Config{ClistSize: 16})
		clients := []netip.Addr{c1, c2}
		servers := []netip.Addr{s1, s2, s3}
		for i, op := range ops {
			cl := clients[int(op)%len(clients)]
			sv := servers[int(op>>3)%len(servers)]
			fq := fmt.Sprintf("h%d.example.com", int(op)%7)
			h.Insert(cl, fq, []netip.Addr{sv}, time.Duration(i))
			o.Insert(cl, fq, []netip.Addr{sv}, time.Duration(i))
		}
		for _, cl := range clients {
			for _, sv := range servers {
				hf, hok := h.Lookup(cl, sv)
				of, ook := o.Lookup(cl, sv)
				if hok != ook || hf != of {
					return false
				}
			}
		}
		return h.Stats() == o.Stats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	r := New(Config{ClistSize: 1 << 16})
	servers := []netip.Addr{s1, s2, s3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		r.Insert(cl, "bench.example.com", servers, time.Duration(i))
	}
}

func BenchmarkLookupHit(b *testing.B) {
	r := New(Config{ClistSize: 1 << 16})
	r.Insert(c1, "bench.example.com", []netip.Addr{s1}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Lookup(c1, s1); !ok {
			b.Fatal("miss")
		}
	}
}
