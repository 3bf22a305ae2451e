package flowdb

import (
	"net/netip"

	"repro/internal/names"
)

// A row's address word: addrInvalid for the zero Addr, addr4 for IPv4,
// and addr6 plus the zone's name ID for IPv6.
const (
	addrInvalid uint32 = iota
	addr4
	addr6
)

// putAddr returns a as a row stores it: its 16-byte form and its word.
func putAddr(n *names.Table, a netip.Addr) ([16]byte, uint32) {
	switch {
	case a.Is4():
		return a.As16(), addr4
	case a.Is6():
		return a.As16(), addr6 + n.ID(a.Zone())
	}
	return [16]byte{}, addrInvalid
}

// getAddr is the inverse of putAddr.
func getAddr(n *names.Table, b [16]byte, w uint32) netip.Addr {
	switch {
	case w == addr4:
		return netip.AddrFrom4([4]byte(b[12:]))
	case w >= addr6:
		a := netip.AddrFrom16(b)
		if z := w - addr6; z != 0 {
			a = a.WithZone(n.Str(z))
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
