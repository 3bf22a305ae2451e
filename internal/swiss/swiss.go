// Package swiss is the repo's one open-addressing hash table: Index, a
// swiss-style bucket array of uint32 slots, and Slab, the chunked,
// never-copied store those slots address. The flow table and the
// dispatcher's flow tracker (internal/flows) and the resolver's (client,
// server) pair table (internal/resolver) are all an Index over a Slab; the
// package also holds the multiply-fold hash mixers they key with.
//
// The layout follows the classic swiss-table design (Abseil's flat_hash_map,
// and Go 1.24's own runtime maps): one control byte per slot — the low 7
// bits of the hash for a full slot, a sentinel for empty/deleted — packed
// eight to a uint64 "group" so a lookup probes eight slots with a handful
// of 64-bit word operations and no per-slot branching. Keys live in the
// slab entries and the buckets hold only uint32 slab indices, so bucket
// storage is pointer-free: the GC never scans it, and a probe touches a
// dense ctrl word plus one 4-byte slot instead of chasing bucket pointers.
// The caller drives the probe (Index.Probe) and compares keys itself, so no
// indirect call sits between a candidate and its key.
//
// Control-byte encoding (high bit set means "not full"):
//
//	0b0xxxxxxx  full    (low 7 bits of the key's hash, "h2")
//	0b10000000  empty   (never been used, terminates probe sequences)
//	0b11111110  deleted (tombstone; probe sequences continue past it)
package swiss

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
)

// groupSize is the number of slots per control word.
const groupSize = 8

// Control byte sentinels.
const (
	ctrlEmpty   uint8 = 0b1000_0000
	ctrlDeleted uint8 = 0b1111_1110
)

// emptyGroup is a control word of eight empty slots.
const emptyGroup uint64 = 0x8080808080808080

const (
	loBits uint64 = 0x0101010101010101
	hiBits uint64 = 0x8080808080808080
)

// h1 is the probe-sequence part of a hash (group selection).
func h1(h uint64) uint64 { return h >> 7 }

// h2 is the control-byte part of a hash (low 7 bits).
func h2(h uint64) uint8 { return uint8(h) & 0x7F }

// matchH2 returns a mask with bit 8i+7 set for every full lane i of g whose
// control byte equals c. The SWAR subtraction trick can set a false
// positive on the lane above a true match — callers verify candidates by
// comparing keys, so a false positive costs one wasted compare and a false
// negative never occurs.
func matchH2(g uint64, c uint8) uint64 {
	x := g ^ (loBits * uint64(c))
	return (x - loBits) &^ x & hiBits
}

// matchEmpty returns a mask of the empty lanes of g (exact: bit 7 set and
// bit 6 clear singles out ctrlEmpty among the sentinels).
func matchEmpty(g uint64) uint64 { return g &^ (g << 1) & hiBits }

// matchFree returns a mask of the empty-or-deleted lanes of g (any lane
// with the high control bit set).
func matchFree(g uint64) uint64 { return g & hiBits }

// firstLane returns the lane index (0..7) of the lowest set bit of a match
// mask. Iterate a mask with `for ; m != 0; m &= m - 1`.
func firstLane(m uint64) int { return bits.TrailingZeros64(m) >> 3 }

// ctrlAt extracts lane's control byte from g.
func ctrlAt(g uint64, lane int) uint8 { return uint8(g >> (uint(lane) * 8)) }

// withCtrl returns g with lane's control byte replaced by c.
func withCtrl(g uint64, lane int, c uint8) uint64 {
	sh := uint(lane) * 8
	return g&^(uint64(0xFF)<<sh) | uint64(c)<<sh
}

// isFull reports whether a control byte marks a full slot.
func isFull(c uint8) bool { return c&0x80 == 0 }

// Index maps hashes to uint32 slots: one control word per 8-slot group plus
// the dense slot array. It stores no keys — the caller keeps them in the
// entries the slots address — so it never compares one either. Init it
// before use.
type Index struct {
	ctrl   []uint64
	slots  []uint32
	gmask  uint64 // len(ctrl) - 1
	used   int    // full slots
	tombs  int    // deleted slots
	growAt int    // rebuild when used+tombs reaches this (7/8 load)
}

// Init empties ix at its initial size of 16 groups (128 slots).
func (ix *Index) Init() { ix.init(16) }

func (ix *Index) init(groups int) {
	ix.ctrl = make([]uint64, groups)
	for i := range ix.ctrl {
		ix.ctrl[i] = emptyGroup
	}
	ix.slots = make([]uint32, groups*groupSize)
	ix.gmask = uint64(groups - 1)
	ix.used, ix.tombs = 0, 0
	ix.growAt = groups * groupSize * 7 / 8
}

// Reset empties ix, keeping its size: refilling it to about the same count
// allocates nothing.
func (ix *Index) Reset() {
	for i := range ix.ctrl {
		ix.ctrl[i] = emptyGroup
	}
	ix.used, ix.tombs = 0, 0
}

// Len returns the number of slots filed in ix.
func (ix *Index) Len() int { return ix.used }

// Probe is a position in the probe sequence of one hash, a group at a
// time. The caller drives it and compares keys itself:
//
//	for p := ix.Probe(h); ; p = p.Next() {
//		for m := p.Match(); m != 0; m &= m - 1 {
//			if s := p.Slot(m); key(s) == k {
//				return s
//			}
//		}
//		if p.Last() {
//			return miss
//		}
//	}
//
// Probe is a small value with value methods, so the compiler keeps it in
// registers.
type Probe struct {
	ix      *Index
	g, step uint64
	h2      uint8
}

// Probe starts the probe sequence of h at its first group.
func (ix *Index) Probe(h uint64) Probe {
	return Probe{ix: ix, g: h1(h) & ix.gmask, step: 1, h2: h2(h)}
}

// Match returns the candidates of the current group, the lanes whose
// control byte matches the hash, as a mask: iterate it with
// `for ; m != 0; m &= m - 1`.
func (p Probe) Match() uint64 { return matchH2(p.ix.ctrl[p.g], p.h2) }

// Slot returns the slot in the lowest lane of a Match mask.
func (p Probe) Slot(m uint64) uint32 {
	return p.ix.slots[p.g*groupSize+uint64(firstLane(m))]
}

// Last reports whether the current group ends the sequence: it has an
// empty lane, so no later group can hold the key.
func (p Probe) Last() bool { return matchEmpty(p.ix.ctrl[p.g]) != 0 }

// Next returns the position of the next group in the sequence.
func (p Probe) Next() Probe {
	p.g = (p.g + p.step) & p.ix.gmask
	p.step++
	return p
}

// Insert files slot under h. The caller guarantees no slot already filed
// holds an equal key. At 7/8 load ix is rebuilt first — doubled when at
// least half its slots are full, otherwise purged of tombstones at the same
// size — reading each filed slot's hash back through hashOf.
func (ix *Index) Insert(h uint64, slot uint32, hashOf func(slot uint32) uint64) {
	if ix.used+ix.tombs >= ix.growAt {
		ix.rebuild(hashOf)
	}
	ix.place(h, slot)
}

// place puts slot in the first free lane along h's probe sequence; capacity
// must be available. That lane is correct: every earlier group was full, so
// lookups cannot stop short of it.
func (ix *Index) place(h uint64, slot uint32) {
	g := h1(h) & ix.gmask
	for step := uint64(1); ; step++ {
		w := ix.ctrl[g]
		if m := matchFree(w); m != 0 {
			lane := firstLane(m)
			if ctrlAt(w, lane) == ctrlDeleted {
				ix.tombs--
			}
			ix.ctrl[g] = withCtrl(w, lane, h2(h))
			ix.slots[g*groupSize+uint64(lane)] = slot
			ix.used++
			return
		}
		g = (g + step) & ix.gmask
	}
}

func (ix *Index) rebuild(hashOf func(uint32) uint64) {
	groups := len(ix.ctrl)
	if ix.used >= ix.growAt/2 {
		groups *= 2
	}
	oldCtrl, oldSlots := ix.ctrl, ix.slots
	ix.init(groups)
	for g, w := range oldCtrl {
		for lane := 0; lane < groupSize; lane++ {
			if isFull(ctrlAt(w, lane)) {
				s := oldSlots[g*groupSize+lane]
				ix.place(hashOf(s), s)
			}
		}
	}
}

// Delete removes slot, filed under h, from ix; a slot that is not filed is
// a no-op. When the slot's group still has an empty lane, no probe sequence
// can rely on stepping past it, so it reverts to empty instead of leaving a
// tombstone.
func (ix *Index) Delete(h uint64, slot uint32) {
	c := h2(h)
	g := h1(h) & ix.gmask
	for step := uint64(1); ; step++ {
		w := ix.ctrl[g]
		for m := matchH2(w, c); m != 0; m &= m - 1 {
			lane := firstLane(m)
			if ix.slots[g*groupSize+uint64(lane)] != slot {
				continue
			}
			if matchEmpty(w) != 0 {
				ix.ctrl[g] = withCtrl(w, lane, ctrlEmpty)
			} else {
				ix.ctrl[g] = withCtrl(w, lane, ctrlDeleted)
				ix.tombs++
			}
			ix.used--
			return
		}
		if matchEmpty(w) != 0 {
			return
		}
		g = (g + step) & ix.gmask
	}
}

// chunkBits sizes slab chunks: 256 entries per chunk.
const chunkBits = 8

// Slab holds T values addressed by uint32 index in fixed-size chunks that
// are allocated once and never copied: growth neither moves an entry —
// a *T stays valid for as long as its index is live — nor pays write
// barriers over pointer fields the way a doubling append would. Freed
// indices are reused last-in first-out. The zero Slab is empty and ready.
type Slab[T any] struct {
	chunks [][]T
	n      uint32 // indices ever handed out
	free   []uint32
}

// At returns the entry at index i.
func (s *Slab[T]) At(i uint32) *T {
	return &s.chunks[i>>chunkBits][i&(1<<chunkBits-1)]
}

// Alloc returns a free index: the most recently freed one, or a fresh one.
// A reused entry keeps whatever the caller left in it.
func (s *Slab[T]) Alloc() uint32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	i := s.n
	if i>>chunkBits == uint32(len(s.chunks)) {
		s.chunks = append(s.chunks, make([]T, 1<<chunkBits))
	}
	s.n++
	return i
}

// Free returns index i for reuse.
func (s *Slab[T]) Free(i uint32) { s.free = append(s.free, i) }

// Reset frees every index and zeroes the entries handed out, keeping the
// chunks: refilling the slab allocates nothing, and the old entries pin
// nothing. Fresh indices start again from 0.
func (s *Slab[T]) Reset() {
	for c := uint32(0); c<<chunkBits < s.n; c++ {
		clear(s.chunks[c][:min(1<<chunkBits, s.n-c<<chunkBits)])
	}
	s.n = 0
	s.free = s.free[:0]
}

// Hash mixing constants (splitmix64 / wyhash lineage).
const (
	k0 uint64 = 0x9E3779B97F4A7C15
	k1 uint64 = 0xD6E8FEB86659FD93
)

// Mix folds a 64x64→128-bit multiply into 64 bits; the core of the wyhash
// family and far cheaper than iterating FNV over the key bytes.
func Mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// HashU64 mixes one 64-bit word into a running hash.
func HashU64(seed, v uint64) uint64 { return Mix(seed^v, k0) }

// HashAddr mixes an address into a running hash, reading it as two 64-bit
// words of its 16-byte form. IPv4 and 4-in-6 forms of the same address hash
// identically (they compare unequal, so this is merely a collision), and
// zones are ignored for the same reason.
func HashAddr(seed uint64, a netip.Addr) uint64 {
	b := a.As16()
	return Hash128(seed, binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16]))
}

// Hash128 mixes a 128-bit value, given as its low and high words, into a
// running hash: HashAddr for callers that keep an address as two words.
func Hash128(seed, lo, hi uint64) uint64 { return Mix(seed^lo, hi^k1) }
