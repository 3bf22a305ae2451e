package flowdb

import (
	"hash/maphash"
	"net/netip"

	"repro/internal/stats"
	"repro/internal/swiss"
)

// nameSeed keys every DB's name table. Rows store IDs, never hashes, so
// tables need not share anything but this.
var nameSeed = maphash.MakeSeed()

// noName is the ID find returns for a string the table does not hold; no
// row carries it.
const noName = ^uint32(0)

// names is a DB's string table: every distinct string its rows name —
// labels, ground truths, HTTP hosts, SNIs, certificate names, vantages and
// address zones — numbered densely from 1, with ID 0 for "". It is a
// swiss.Index over a slab of name entries, so a filed name costs a 24-B
// entry plus 5–10 B of index (5 B per slot, at 1/2 to 7/8 load), and the
// strings are pinned once per table, not once per row. The slab's chunks are allocated once each and
// never copied: a table allocates about what it keeps.
type names struct {
	ix    swiss.Index
	slab  swiss.Slab[name]
	count uint32 // IDs handed out, "" included
}

// name is one entry of the table.
type name struct {
	s string
	// hash is hash(s), kept so growing the index reads no string bytes:
	// those are scattered over the heap, the entries are not.
	hash uint32
	// sld is 1 + the ID of stats.SLD(s), or 0 until derived. A second-level
	// domain is computed once per distinct label.
	sld uint32
}

// init empties n for a fresh DB.
func (n *names) init() {
	n.ix.Init()
	n.fileEmpty()
}

// fileEmpty files "" as ID 0.
func (n *names) fileEmpty() {
	n.slab.Alloc()
	n.slab.At(0).sld = 1 // stats.SLD("") is ""
	n.count = 1
}

// reset empties n, keeping its storage. The dropped strings are released
// at once: a recycled window DB pins none of the last window's names.
func (n *names) reset() {
	n.slab.Reset()
	n.ix.Reset()
	n.fileEmpty()
}

// hash is a name's hash, 32 bits wide: enough for an index of 2^25
// groups, far more names than a table can hold.
func hash(s string) uint64 { return uint64(uint32(maphash.String(nameSeed, s))) }

func (n *names) hashOf(id uint32) uint64 { return uint64(n.slab.At(id).hash) }

// str returns the string of name id.
func (n *names) str(id uint32) string { return n.slab.At(id).s }

// find returns the ID of s, hashed to h, or noName.
func (n *names) find(s string, h uint64) uint32 {
	for p := n.ix.Probe(h); ; p = p.Next() {
		for m := p.Match(); m != 0; m &= m - 1 {
			if id := p.Slot(m); n.str(id) == s {
				return id
			}
		}
		if p.Last() {
			return noName
		}
	}
}

// id returns the ID of s, filing s first when the table does not hold it.
func (n *names) id(s string) uint32 {
	if s == "" {
		return 0
	}
	h := hash(s)
	if id := n.find(s, h); id != noName {
		return id
	}
	id := n.slab.Alloc()
	*n.slab.At(id) = name{s: s, hash: uint32(h)}
	n.count++
	n.ix.Insert(h, id, n.hashOf)
	return id
}

// idOr is id(s), given that known is filed as knownID.
func (n *names) idOr(s, known string, knownID uint32) uint32 {
	if s == known {
		return knownID
	}
	return n.id(s)
}

// deriveSLD files the second-level domain of name id, once per id. Reads
// (Load, queries) only call sldOf, on labels Add and Merge derived.
func (n *names) deriveSLD(id uint32) {
	if e := n.slab.At(id); e.sld == 0 { // slab entries never move
		e.sld = n.id(stats.SLD(e.s)) + 1
	}
}

// sldOf returns the ID of the second-level domain deriveSLD filed for id.
func (n *names) sldOf(id uint32) uint32 { return n.slab.At(id).sld - 1 }

// remap files every name of o in n and returns the ID each of o's IDs
// becomes, with same reporting the identity mapping (rows copied from o
// need no rewrite). Second-level domains o derived carry over. One lookup
// per distinct name of o, however many rows use it.
func (n *names) remap(o *names) (ids []uint32, same bool) {
	k := o.count // read once: o may be n itself
	ids = make([]uint32, k)
	same = true
	for i := uint32(1); i < k; i++ {
		ids[i] = n.id(o.str(i))
		same = same && ids[i] == i
	}
	for i := uint32(1); i < k; i++ {
		if s := o.slab.At(i).sld; s != 0 {
			if d := n.slab.At(ids[i]); d.sld == 0 {
				d.sld = ids[s-1] + 1
			}
		}
	}
	return ids, same
}

// A row's address word: addrInvalid for the zero Addr, addr4 for IPv4,
// and addr6 plus the zone's name ID for IPv6.
const (
	addrInvalid uint32 = iota
	addr4
	addr6
)

// putAddr returns a as a row stores it: its 16-byte form and its word.
func (n *names) putAddr(a netip.Addr) ([16]byte, uint32) {
	switch {
	case a.Is4():
		return a.As16(), addr4
	case a.Is6():
		return a.As16(), addr6 + n.id(a.Zone())
	}
	return [16]byte{}, addrInvalid
}

// addr is the inverse of putAddr.
func (n *names) addr(b [16]byte, w uint32) netip.Addr {
	switch {
	case w == addr4:
		return netip.AddrFrom4([4]byte(b[12:]))
	case w >= addr6:
		a := netip.AddrFrom16(b)
		if z := w - addr6; z != 0 {
			a = a.WithZone(n.str(z))
		}
		return a
	}
	return netip.Addr{}
}

// remapAddr rewrites the zone ID of an address word through ids.
func remapAddr(w uint32, ids []uint32) uint32 {
	if w < addr6 {
		return w
	}
	return addr6 + ids[w-addr6]
}
