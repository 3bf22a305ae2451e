// Package names is the pipeline's one string table for domain names. A
// pipeline shard files every name it reads — the QNAME its DNS decoder
// decodes, the HTTP Host, TLS SNI and certificate names its classifier
// finds — once, and from then on passes it around as a uint32 ID: the
// Clist entry, the flow's tag and the flow's name fields hold IDs, so
// their slabs hold no pointer and the GC never scans them. Strings appear
// only at the edges (events, emitted flows, checkpoints, CSV), read back
// with Str.
//
// A Table is a swiss.Index over a swiss.Slab of entries: a filed name
// costs a 24-B entry plus 5–10 B of index, its hash is kept so growing
// the index reads no string bytes, and its second-level domain is derived
// once per ID. The flow log (flowdb) keeps one Table per DB, with the
// same code.
//
// A name nothing uses any more stays filed — a name that comes back costs
// a probe, not an allocation — until the table holds Bound names. Then
// Collect asks the table's holders (Hold) which names they use — the
// resolver its Clist entries' FQDNs, the flow table its live flows' names
// — and frees every other name in one sweep; the next sweep waits until
// the table has grown by as many names as it kept, and by at least
// Bound. So a returning name is allocated again no sooner than under a
// table wiped at Bound, and the sweeps cost O(1) amortized per filing.
package names

import (
	"hash/maphash"
	"slices"
	"unsafe"

	"repro/internal/stats"
	"repro/internal/swiss"
)

// Bound is the number of names a table holds before its first sweep.
const Bound = 1 << 16

// seed keys every table. Tables share it so one table can file another's
// name with the hash the other cached (Remap).
var seed = maphash.MakeSeed()

// none is the ID find returns for a name the table does not hold.
const none = ^uint32(0)

// Table is a reference-counted string table: distinct names numbered from
// 1, with ID 0 for "". Not safe for concurrent use, but a table nobody
// writes may be read (Str, SLD) by any number of goroutines.
type Table struct {
	ix   swiss.Index
	slab swiss.Slab[block]
	// free holds the freed IDs, reused last in first out.
	free []uint32
	// end is one past the highest ID ever handed out: the next fresh one.
	end uint32
	// live counts the filed names, "" excluded; sweepAt is the count at
	// which Collect sweeps.
	live, sweepAt int
	// holders hand a sweep the IDs they use (Hold).
	holders []func(keep func(id uint32))
}

// block is the slab's unit: eight entries, so a slab chunk is 48 KiB, six
// whole pages. The allocator serves it exactly; a smaller chunk of
// entries, which hold pointers, carries an 8-byte header that rounds it up
// a size class (6 KiB of 256 entries by 6%, 24 KiB by 11%).
type block [8]entry

// entry is one ID's slot. A free slot has s == "".
type entry struct {
	s string
	// hash is hash(s), kept so growing the index reads no string bytes:
	// those are scattered over the heap, the entries are not.
	hash uint32
	// sld is 1 + the ID of stats.SLD(s), or 0 until derived.
	sld uint32
}

// New returns an empty table.
func New() *Table {
	t := &Table{}
	t.Init()
	return t
}

// Init empties t for first use.
func (t *Table) Init() {
	t.ix.Init()
	t.fileEmpty()
}

// fileEmpty files "" as ID 0.
func (t *Table) fileEmpty() {
	t.end, t.live, t.sweepAt = 0, 0, Bound
	t.at(t.alloc()).sld = 1 // stats.SLD("") is ""
}

// Reset empties t, keeping its storage and its holders. The dropped
// strings are released at once, and every ID is new again.
func (t *Table) Reset() {
	t.slab.Reset()
	t.free = t.free[:0]
	t.ix.Reset()
	t.fileEmpty()
}

// hash is a name's hash, 32 bits wide: enough for an index of 2^25
// groups, far more names than a table can hold.
func hash(s string) uint64 { return uint64(uint32(maphash.String(seed, s))) }

func hashBytes(b []byte) uint64 { return uint64(uint32(maphash.Bytes(seed, b))) }

// at returns the entry of id. Entries never move.
func (t *Table) at(id uint32) *entry { return &t.slab.At(id / 8)[id%8] }

// alloc returns a free ID: the most recently freed one, or a fresh one.
func (t *Table) alloc() uint32 {
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		return id
	}
	if t.end%8 == 0 {
		t.slab.Alloc() // block end/8
	}
	t.end++
	return t.end - 1
}

func (t *Table) hashOf(id uint32) uint64 { return uint64(t.at(id).hash) }

// Str returns the name filed as id.
func (t *Table) Str(id uint32) string { return t.at(id).s }

// End is one past the highest ID t has handed out.
func (t *Table) End() uint32 { return t.end }

// find returns the ID of s, hashed to h, or none.
func (t *Table) find(s string, h uint64) uint32 {
	for p := t.ix.Probe(h); ; p = p.Next() {
		for m := p.Match(); m != 0; m &= m - 1 {
			if id := p.Slot(m); t.Str(id) == s {
				return id
			}
		}
		if p.Last() {
			return none
		}
	}
}

// ID returns the ID of s, filing s itself when t does not hold it.
func (t *Table) ID(s string) uint32 {
	if s == "" {
		return 0
	}
	return t.fileHashed(s, hash(s))
}

// Intern returns the ID of the name b spells, filing a copy of b when t
// does not hold it: a name t holds costs a probe and no allocation.
func (t *Table) Intern(b []byte) uint32 {
	if len(b) == 0 {
		return 0
	}
	h := hashBytes(b)
	// The probe keeps no reference to b, so it reads b in place.
	if id := t.find(unsafe.String(unsafe.SliceData(b), len(b)), h); id != none {
		return id
	}
	return t.file(string(b), h)
}

// fileHashed is ID with the hash given.
func (t *Table) fileHashed(s string, h uint64) uint32 {
	if id := t.find(s, h); id != none {
		return id
	}
	return t.file(s, h)
}

// file files s, which t does not hold, under hash h.
func (t *Table) file(s string, h uint64) uint32 {
	id := t.alloc()
	e := t.at(id)
	e.s, e.hash = s, uint32(h)
	t.live++
	t.ix.Insert(h, id, t.hashOf)
	return id
}

// Hold registers a holder: at every sweep, Collect calls hold and keeps
// every ID hold hands keep. A table has as many holders as share it.
func (t *Table) Hold(hold func(keep func(id uint32))) { t.holders = append(t.holders, hold) }

// Collect frees every name no holder keeps once the table has reached its
// sweep point (see the package notes), and does nothing otherwise. An ID
// no holder keeps is valid only until the next Collect: its owner calls
// Collect where it holds no such ID. A table whose SLDs were derived
// (DeriveSLD) is never swept: the sweep does not keep a kept name's SLD.
func (t *Table) Collect() {
	if t.live < t.sweepAt {
		return
	}
	keep := make([]uint64, (t.end+63)/64)
	mark := func(id uint32) { keep[id/64] |= 1 << (id % 64) }
	for _, hold := range t.holders {
		hold(mark)
	}
	for id := uint32(1); id < t.end; id++ {
		if t.Str(id) != "" && keep[id/64]&(1<<(id%64)) == 0 {
			t.release(id)
		}
	}
	t.sweepAt = t.live + max(Bound, t.live)
}

// release frees the slot of name id, whose SLD goes with it: a name filed
// there later derives its own.
func (t *Table) release(id uint32) {
	e := t.at(id)
	t.ix.Delete(uint64(e.hash), id)
	*e = entry{}
	t.free = append(t.free, id)
	t.live--
}

// DeriveSLD files the second-level domain of name id, once per name.
func (t *Table) DeriveSLD(id uint32) {
	if e := t.at(id); e.sld == 0 { // entries never move
		e.sld = t.ID(stats.SLD(e.s)) + 1
	}
}

// SLD returns the ID of the second-level domain DeriveSLD filed for id.
func (t *Table) SLD(id uint32) uint32 { return t.at(id).sld - 1 }

// Remap files every name of o in t and returns the ID each of o's IDs
// becomes, in ids' storage, with same reporting the identity mapping.
// Second-level domains o derived carry over. One lookup per distinct name
// of o, with the hash o cached, so a string is read only to compare it. o
// must never have been swept: every ID below its End names something.
func (t *Table) Remap(o *Table, ids []uint32) (_ []uint32, same bool) {
	k := o.End() // read once: o may be t itself
	ids = slices.Grow(ids[:0], int(k))[:k]
	ids[0], same = 0, true
	for i := uint32(1); i < k; i++ {
		ids[i] = t.fileHashed(o.Str(i), o.hashOf(i))
		same = same && ids[i] == i
	}
	for i := uint32(1); i < k; i++ {
		if s := o.at(i).sld; s != 0 {
			if d := t.at(ids[i]); d.sld == 0 {
				d.sld = ids[s-1] + 1
			}
		}
	}
	return ids, same
}
