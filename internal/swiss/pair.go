package swiss

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
)

// Family bits of an address pair: which of its two addresses are IPv4. An
// IPv4 address and its 4-in-6 twin differ in them, so the two stay distinct
// keys.
const (
	client4 uint8 = 1 << iota
	server4
	both4 = client4 | server4
)

// PairKey is a (client, server) address pair in probe form, as a table
// builds it from a packet: both addresses in full, with no pointer (a
// netip.Addr holds one). Zones are not kept; the packet parser never
// produces one.
type PairKey struct {
	// V4 is the pair when Fam is both4: the client's IPv4 address in the
	// high half, the server's in the low half, each in network byte order.
	V4 uint64
	// Client and Server are the addresses in 16-byte form when Fam is not
	// both4.
	Client, Server Addr16
	Fam            uint8
}

// Set fills k with the pair (client, server). The fields the pair's family
// does not use keep their values.
func (k *PairKey) Set(client, server netip.Addr) {
	k.Fam = 0
	if client.Is4() {
		k.Fam |= client4
	}
	if server.Is4() {
		k.Fam |= server4
	}
	if k.Fam == both4 {
		c, s := client.As4(), server.As4()
		k.V4 = uint64(binary.BigEndian.Uint32(c[:]))<<32 | uint64(binary.BigEndian.Uint32(s[:]))
		return
	}
	k.Client, k.Server = ToAddr16(client), ToAddr16(server)
}

// Addrs returns k's two addresses.
func (k *PairKey) Addrs() (client, server netip.Addr) {
	if k.Fam == both4 {
		return addr4(uint32(k.V4 >> 32)), addr4(uint32(k.V4))
	}
	return k.Client.Addr(k.Fam&client4 != 0), k.Server.Addr(k.Fam&server4 != 0)
}

// Reverse swaps k's client and server.
func (k *PairKey) Reverse() {
	k.V4 = bits.RotateLeft64(k.V4, 32)
	k.Client, k.Server = k.Server, k.Client
	k.Fam = swapFam(k.Fam)
}

// Hash mixes k into seed, client first: an IPv4 pair as its one word.
func (k *PairKey) Hash(seed uint64) uint64 {
	if k.Fam == both4 {
		return HashU64(seed, k.V4)
	}
	return hash16(seed, &k.Client, &k.Server)
}

// HashEnds mixes k into seed with a port at each end, so that k reversed,
// its ports swapped, hashes the same: the hash of a table that finds a key
// in either direction with one probe.
func (k *PairKey) HashEnds(seed uint64, cport, sport uint16) uint64 {
	if k.Fam == both4 {
		return HashU64(seed, k.V4>>32<<16|uint64(cport)) + HashU64(seed, k.V4<<32>>16|uint64(sport))
	}
	return HashU64(Hash128(seed, k.Client.Lo, k.Client.Hi), uint64(cport)) +
		HashU64(Hash128(seed, k.Server.Lo, k.Server.Hi), uint64(sport))
}

func hash16(seed uint64, client, server *Addr16) uint64 {
	return Hash128(Hash128(seed, client.Lo, client.Hi), server.Lo, server.Hi)
}

// swapFam returns the family bits of a pair with its ends swapped.
func swapFam(fam uint8) uint8 { return fam>>1 | fam<<1&server4 }

func addr4(w uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], w)
	return netip.AddrFrom4(b)
}

// pairCell is the side cell of a stored pair that is not two IPv4
// addresses.
type pairCell struct{ client, server Addr16 }

// Pairs holds the side cells of one table's stored pairs. A table stores a
// pair as a word and the pair's family bits, side by side in its entries
// so they pack with its other small fields: the word is the key's V4 for
// two IPv4 addresses, and otherwise the slot of a side cell here holding
// both addresses. The table calls Put when it files a pair and Free when it
// drops it. The zero Pairs is empty and ready.
type Pairs struct{ cells Slab[pairCell] }

// Put returns the word that stores k, taking a side cell unless k is two
// IPv4 addresses.
func (s *Pairs) Put(k *PairKey) uint64 {
	if k.Fam == both4 {
		return k.V4
	}
	i := s.cells.Alloc()
	*s.cells.At(i) = pairCell{k.Client, k.Server}
	return uint64(i)
}

// Free releases the side cell of the stored pair (w, fam), if it has one.
func (s *Pairs) Free(w uint64, fam uint8) {
	if fam != both4 {
		s.cells.Free(uint32(w))
	}
}

// Reset frees every side cell, keeping their memory.
func (s *Pairs) Reset() { s.cells.Reset() }

// Equal reports whether the stored pair (w, fam) is k.
func (s *Pairs) Equal(w uint64, fam uint8, k *PairKey) bool {
	if fam != k.Fam {
		return false
	}
	if fam == both4 {
		return w == k.V4
	}
	c := s.cells.At(uint32(w))
	return c.client == k.Client && c.server == k.Server
}

// Reverses reports whether the stored pair (w, fam) is k with its ends
// swapped.
func (s *Pairs) Reverses(w uint64, fam uint8, k *PairKey) bool {
	if fam != swapFam(k.Fam) {
		return false
	}
	if fam == both4 {
		return w == bits.RotateLeft64(k.V4, 32)
	}
	c := s.cells.At(uint32(w))
	return c.client == k.Server && c.server == k.Client
}

// Load fills k with the stored pair (w, fam).
func (s *Pairs) Load(k *PairKey, w uint64, fam uint8) {
	k.Fam = fam
	if fam == both4 {
		k.V4 = w
		return
	}
	c := s.cells.At(uint32(w))
	k.Client, k.Server = c.client, c.server
}

// Hash returns the hash of the stored pair (w, fam): PairKey.Hash of the
// key it stores.
func (s *Pairs) Hash(seed, w uint64, fam uint8) uint64 {
	if fam == both4 {
		return HashU64(seed, w)
	}
	c := s.cells.At(uint32(w))
	return hash16(seed, &c.client, &c.server)
}
