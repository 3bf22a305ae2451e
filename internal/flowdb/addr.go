package flowdb

import (
	"encoding/binary"
	"net/netip"
)

// noAddr is the address word of the zero Addr: an IPv6 log index no DB
// reaches.
const noAddr = ^uint32(0)

// addr6 is an IPv6 address as a DB's side log keeps it: its 16 bytes and
// the name ID of its zone (0 for none). A row names it by log index, so
// the common IPv4 row keeps both addresses inline in 8 bytes.
type addr6 struct {
	addr [16]byte
	zone uint32
}

// putAddr returns a's address word and whether it is IPv4: an IPv4
// address inline, an IPv6 address the index of the entry putAddr appends
// to the IPv6 log, and the zero Addr noAddr.
func (db *DB) putAddr(a netip.Addr) (w uint32, is4 bool) {
	switch {
	case a.Is4():
		b := a.As4()
		return binary.BigEndian.Uint32(b[:]), true
	case a.Is6():
		db.v6 = append(db.v6, addr6{a.As16(), db.names.ID(a.Zone())})
		return uint32(len(db.v6) - 1), false
	}
	return noAddr, false
}

// getAddr is the inverse of putAddr.
func (db *DB) getAddr(w uint32, is4 bool) netip.Addr {
	switch {
	case is4:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], w)
		return netip.AddrFrom4(b)
	case w == noAddr:
		return netip.Addr{}
	}
	e := &db.v6[w]
	a := netip.AddrFrom16(e.addr)
	if e.zone != 0 {
		a = a.WithZone(db.names.Str(e.zone))
	}
	return a
}

// rebase adds base to r's IPv6 log indices: Merge appends a source's log
// after the destination's.
func (r *row) rebase(base uint32) {
	if r.flags&flagClient4 == 0 && r.client != noAddr {
		r.client += base
	}
	if r.flags&flagServer4 == 0 && r.server != noAddr {
		r.server += base
	}
}
