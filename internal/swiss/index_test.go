package swiss

import (
	"math/rand/v2"
	"testing"
)

// testEntry is a slab entry of the index tests: the key and its cached hash.
type testEntry struct {
	key, hash uint64
}

// testTable is the smallest keyed table over an Index and a Slab: what
// internal/flows and internal/resolver build, minus their payloads.
type testTable struct {
	idx  Index
	slab Slab[testEntry]
	hash func(uint64) uint64
}

func newTestTable(hash func(uint64) uint64) *testTable {
	t := &testTable{hash: hash}
	t.idx.Init()
	return t
}

func (t *testTable) hashOf(s uint32) uint64 { return t.slab.At(s).hash }

func (t *testTable) find(key uint64) (uint32, bool) {
	for p := t.idx.Probe(t.hash(key)); ; p = p.Next() {
		for m := p.Match(); m != 0; m &= m - 1 {
			if s := p.Slot(m); t.slab.At(s).key == key {
				return s, true
			}
		}
		if p.Last() {
			return 0, false
		}
	}
}

func (t *testTable) insert(key uint64) uint32 {
	s := t.slab.Alloc()
	e := t.slab.At(s)
	e.key, e.hash = key, t.hash(key)
	t.idx.Insert(e.hash, s, t.hashOf)
	return s
}

func (t *testTable) delete(s uint32) {
	t.idx.Delete(t.slab.At(s).hash, s)
	t.slab.Free(s)
}

// TestIndexMatchesMap drives an Index and a Go map with the same random
// insert/delete/probe churn: a growth phase that forces doublings, then
// cycles that fill the index to its load limit and delete down to a
// quarter of it, which must purge at the same size, never double. Every
// live key must be found at its slot, every deleted key must be absent,
// Len must match the map, and a purge must leave no tombstone.
// The clustered hash piles keys into a few groups, so probe sequences run
// long and deletes leave the tombstones a purge needs; the well-mixed one
// leaves too few to reach the limit below half load.
func TestIndexMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hash  func(uint64) uint64
		purge bool // the churn must force a same-size purge
	}{
		{"mixed", func(k uint64) uint64 { return HashU64(7, k) }, false},
		{"clustered", func(k uint64) uint64 { return HashU64(7, k%3)&^0x7F | k&0x7F }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := newTestTable(tc.hash)
			model := map[uint64]uint32{}
			rng := rand.New(rand.NewPCG(1, 2))
			var keys []uint64 // model's keys, for a reproducible victim choice
			var doublings, purges int
			insert := func(k uint64) {
				groups, rebuilds := len(tbl.idx.ctrl), tbl.idx.used+tbl.idx.tombs >= tbl.idx.growAt
				model[k] = tbl.insert(k)
				keys = append(keys, k)
				switch {
				case !rebuilds:
				case len(tbl.idx.ctrl) == groups:
					purges++
					if tbl.idx.tombs != 0 {
						t.Fatalf("%d tombstones after a purge", tbl.idx.tombs)
					}
				default:
					doublings++
				}
			}
			deleteAny := func() {
				if len(keys) == 0 {
					return
				}
				i := rng.IntN(len(keys))
				k := keys[i]
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
				tbl.delete(model[k])
				delete(model, k)
				if _, ok := tbl.find(k); ok {
					t.Fatalf("deleted key %d still found", k)
				}
			}
			check := func(op int) {
				if tbl.idx.Len() != len(model) {
					t.Fatalf("op %d: Len %d, map %d", op, tbl.idx.Len(), len(model))
				}
				k := rng.Uint64N(keySpace)
				s, ok := tbl.find(k)
				if want, live := model[k]; ok != live || live && s != want {
					t.Fatalf("op %d: find(%d) = %d,%v; map %d,%v", op, k, s, ok, want, live)
				}
			}
			fresh := func() uint64 {
				for {
					if k := rng.Uint64N(keySpace); !isLive(model, k) {
						return k
					}
				}
			}
			for op := range 3000 { // growth: insert-heavy, doubling
				if rng.IntN(4) > 0 {
					insert(fresh())
				} else {
					deleteAny()
				}
				check(op)
			}
			// Churn: fill to the load limit, then delete down to a quarter of
			// it. Deletes from full groups leave tombstones, so a later insert
			// finds the limit reached below half load and purges at the same
			// size.
			groups := len(tbl.idx.ctrl)
			for cycle := range 40 {
				for {
					insert(fresh())
					check(cycle)
					if len(tbl.idx.ctrl) != groups {
						t.Fatalf("cycle %d: a rebuild below half load doubled the index", cycle)
					}
					if tbl.idx.used+tbl.idx.tombs >= tbl.idx.growAt {
						break
					}
				}
				for len(model) > tbl.idx.growAt/4 {
					deleteAny()
					check(cycle)
				}
			}
			for k, s := range model {
				if got, ok := tbl.find(k); !ok || got != s {
					t.Fatalf("live key %d: find = %d,%v, want %d", k, got, ok, s)
				}
			}
			if doublings == 0 || tc.purge && purges == 0 {
				t.Fatalf("churn forced %d doublings and %d purges", doublings, purges)
			}
		})
	}
}

// keySpace bounds the test keys, so random probes hit live keys often.
const keySpace = 1 << 14

func isLive(model map[uint64]uint32, k uint64) bool {
	_, ok := model[k]
	return ok
}

// TestSlabReuseAndStability pins the Slab contract: freed indices come back
// last-in first-out, and an entry's address survives any later growth.
func TestSlabReuseAndStability(t *testing.T) {
	var s Slab[testEntry]
	const n = 5 << chunkBits
	ptrs := make([]*testEntry, n)
	for i := range n {
		if got := s.Alloc(); got != uint32(i) {
			t.Fatalf("fresh alloc %d = %d", i, got)
		}
		ptrs[i] = s.At(uint32(i))
		ptrs[i].key = uint64(i)
	}
	for i := range n {
		if s.At(uint32(i)) != ptrs[i] || ptrs[i].key != uint64(i) {
			t.Fatalf("entry %d moved or changed across chunk growth", i)
		}
	}
	s.Free(3)
	s.Free(700)
	if a, b, c := s.Alloc(), s.Alloc(), s.Alloc(); a != 700 || b != 3 || c != n {
		t.Fatalf("allocs after freeing 3, 700 = %d, %d, %d; want 700, 3, %d", a, b, c, n)
	}
	if s.At(700) != ptrs[700] {
		t.Fatal("reused entry moved")
	}
}

// TestIndexWarmCycleZeroAlloc: once the index and slab have their
// capacity, an insert/probe/delete cycle allocates nothing.
func TestIndexWarmCycleZeroAlloc(t *testing.T) {
	tbl := newTestTable(func(k uint64) uint64 { return HashU64(3, k) })
	for k := range uint64(1000) {
		tbl.insert(k)
	}
	for k := range uint64(1000) {
		s, _ := tbl.find(k)
		tbl.delete(s)
	}
	k := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		k++
		s := tbl.insert(k)
		if got, ok := tbl.find(k); !ok || got != s {
			t.Fatalf("key %d not found", k)
		}
		tbl.delete(s)
	}); n != 0 {
		t.Fatalf("warm insert/probe/delete allocates %v/op, want 0", n)
	}
}

// TestResetEmptiesKeepingStorage: Index.Reset and Slab.Reset empty a table
// without shrinking it. No old key is found, every entry handed out before
// reads zero (so it pins nothing), fresh slab indices restart at 0, and
// refilling to the same size allocates nothing.
func TestResetEmptiesKeepingStorage(t *testing.T) {
	tbl := newTestTable(func(k uint64) uint64 { return HashU64(5, k) })
	const n = 3<<chunkBits + 7
	for k := range uint64(n) {
		tbl.insert(k)
	}
	tbl.delete(5) // a free-list entry Reset must drop
	groups := len(tbl.idx.ctrl)
	reset := func() { tbl.idx.Reset(); tbl.slab.Reset() }
	reset()
	if tbl.idx.Len() != 0 || tbl.idx.tombs != 0 {
		t.Fatalf("after Reset: %d slots filed, %d tombstones", tbl.idx.Len(), tbl.idx.tombs)
	}
	for k := range uint64(n) {
		if _, ok := tbl.find(k); ok {
			t.Fatalf("key %d found after Reset", k)
		}
	}
	for i := range uint32(n) {
		if e := *tbl.slab.At(i); e != (testEntry{}) {
			t.Fatalf("slab entry %d = %+v after Reset, want zero", i, e)
		}
	}
	if s := tbl.insert(n); s != 0 {
		t.Fatalf("first alloc after Reset = %d, want 0", s)
	}
	refill := func() {
		reset()
		for k := range uint64(n) {
			tbl.insert(n + k)
		}
	}
	if allocs := testing.AllocsPerRun(3, refill); allocs != 0 {
		t.Fatalf("refilling a reset table allocates %v times, want 0", allocs)
	}
	if len(tbl.idx.ctrl) != groups {
		t.Fatalf("index has %d groups after refills, want %d", len(tbl.idx.ctrl), groups)
	}
	for k := range uint64(n) {
		if s, ok := tbl.find(n + k); !ok || tbl.slab.At(s).key != n+k {
			t.Fatalf("refilled key %d not found", n+k)
		}
	}
}
