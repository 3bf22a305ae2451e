package swiss

import (
	"net/netip"
	"testing"
	"unsafe"
)

// A side cell is the two addresses and nothing else: 32 bytes, no pointer.
func TestPairCellLayout(t *testing.T) {
	if n := unsafe.Sizeof(pairCell{}); n != 32 {
		t.Errorf("pairCell is %d bytes, want 32", n)
	}
}

// TestPairForms stores IPv4, IPv6, mixed and 4-in-6 twin pairs, each in
// both orientations, and checks every stored pair against every probe key:
// Equal agrees with == on the addresses and Reverses with == on the swapped
// ones, a stored pair loads back to its key and hashes as its key does,
// only a pair of two IPv4 addresses stays inline, and HashEnds is the same
// for a key and its reverse with the ports swapped.
func TestPairForms(t *testing.T) {
	v4a, v4b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("203.0.113.9")
	v6a, v6b := netip.MustParseAddr("fd00::1"), netip.MustParseAddr("2001:db8::9")
	twinA := netip.AddrFrom16(v4a.As16())
	type pair struct{ c, s netip.Addr }
	var pairs []pair
	for _, p := range []pair{
		{v4a, v4b}, {v6a, v6b}, {v4a, v6b}, {v6a, v4b},
		{twinA, v4b}, {v4a, twinA}, {twinA, v6b}, {v4a, v4a}, {v6a, v6a},
	} {
		pairs = append(pairs, p, pair{p.s, p.c})
	}
	var store Pairs
	words := make([]uint64, len(pairs))
	fams := make([]uint8, len(pairs))
	keys := make([]PairKey, len(pairs))
	for i, p := range pairs {
		k := &keys[i]
		k.Set(p.c, p.s)
		if c, s := k.Addrs(); c != p.c || s != p.s {
			t.Fatalf("%v→%v: key holds %v→%v", p.c, p.s, c, s)
		}
		if inline := p.c.Is4() && p.s.Is4(); (k.Fam == both4) != inline {
			t.Fatalf("%v→%v: family bits %b", p.c, p.s, k.Fam)
		}
		words[i], fams[i] = store.Put(k), k.Fam
		if k.Fam == both4 && words[i] != k.V4 {
			t.Fatalf("%v→%v: IPv4 pair stored as %x, want inline %x", p.c, p.s, words[i], k.V4)
		}
		r := *k
		r.Reverse()
		var want PairKey
		want.Set(p.s, p.c)
		if r != want {
			t.Fatalf("%v→%v: reversed key %+v, want %+v", p.c, p.s, r, want)
		}
		if k.HashEnds(7, 1, 2) != r.HashEnds(7, 2, 1) {
			t.Fatalf("%v→%v: HashEnds differs from its reverse's", p.c, p.s)
		}
	}
	for i, p := range pairs {
		var got PairKey
		store.Load(&got, words[i], fams[i])
		if c, s := got.Addrs(); c != p.c || s != p.s {
			t.Fatalf("%v→%v: stored pair loads as %v→%v", p.c, p.s, c, s)
		}
		if h := store.Hash(7, words[i], fams[i]); h != keys[i].Hash(7) {
			t.Fatalf("%v→%v: stored hash %x, key hash %x", p.c, p.s, h, keys[i].Hash(7))
		}
		for j, q := range pairs {
			if got, want := store.Equal(words[i], fams[i], &keys[j]), p == q; got != want {
				t.Fatalf("%v→%v Equal %v→%v = %v, want %v", p.c, p.s, q.c, q.s, got, want)
			}
			if got, want := store.Reverses(words[i], fams[i], &keys[j]), p == (pair{q.s, q.c}); got != want {
				t.Fatalf("%v→%v Reverses %v→%v = %v, want %v", p.c, p.s, q.c, q.s, got, want)
			}
		}
	}
	// Freed cells are reused: refiling the side pairs takes no new slot.
	n := store.cells.Len()
	for i := range pairs {
		store.Free(words[i], fams[i])
	}
	for i := range pairs {
		store.Put(&keys[i])
	}
	if store.cells.Len() != n {
		t.Fatalf("refiling freed pairs grew the side cells from %d to %d", n, store.cells.Len())
	}
}
