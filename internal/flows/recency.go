package flows

import (
	"math/rand/v2"
	"net/netip"
	"time"

	"repro/internal/layers"
	"repro/internal/swiss"
)

// noIdx is the nil slab index / list link.
const noIdx = ^uint32(0)

// packedKey is a Key as a recency entry stores it: both addresses in their
// 16-byte form plus a family bit each, so an IPv4 address and its 4-in-6
// twin stay distinct, and no pointer (a netip.Addr holds one). Zones are
// not kept; the packet parser never produces one.
type packedKey struct {
	client, server         swiss.Addr16
	clientPort, serverPort uint16
	proto                  layers.IPProtocol
	v4                     uint8 // bit 0: client is IPv4; bit 1: server is IPv4
}

// set packs the key (client, server, cport, sport, proto) into p. It
// writes field by field: building a packedKey value and copying it costs
// as much as the conversion itself.
func (p *packedKey) set(client, server netip.Addr, cport, sport uint16, proto layers.IPProtocol) {
	p.client, p.server = swiss.ToAddr16(client), swiss.ToAddr16(server)
	p.clientPort, p.serverPort, p.proto, p.v4 = cport, sport, proto, 0
	if client.Is4() {
		p.v4 |= 1
	}
	if server.Is4() {
		p.v4 |= 2
	}
}

// key returns p as a Key.
func (p *packedKey) key() Key {
	return Key{
		ClientIP: p.client.Addr(p.v4&1 != 0), ServerIP: p.server.Addr(p.v4&2 != 0),
		ClientPort: p.clientPort, ServerPort: p.serverPort, Proto: p.proto,
	}
}

// equals reports whether p is o.
func (p *packedKey) equals(o *packedKey) bool {
	return p.client == o.client && p.server == o.server &&
		p.clientPort == o.clientPort && p.serverPort == o.serverPort && p.proto == o.proto && p.v4 == o.v4
}

// reverses reports whether p is o with its endpoints swapped.
func (p *packedKey) reverses(o *packedKey) bool {
	return p.client == o.server && p.server == o.client &&
		p.clientPort == o.serverPort && p.serverPort == o.clientPort && p.proto == o.proto &&
		p.v4 == o.v4>>1|o.v4<<1&2
}

// reverse returns p with its endpoints swapped.
func (p packedKey) reverse() packedKey {
	p.client, p.server = p.server, p.client
	p.clientPort, p.serverPort = p.serverPort, p.clientPort
	p.v4 = p.v4>>1 | p.v4<<1&2
	return p
}

// hash mixes a packed key for table placement. The two (address, port)
// endpoint hashes combine by addition, so a key and its reverse hash
// identically: one probe resolves a packet in either direction (the probe
// compares candidates against both orientations), where an
// orientation-sensitive hash would cost a full second probe for every
// server→client packet.
func (p *packedKey) hash(seed uint64) uint64 {
	a := swiss.HashU64(swiss.Hash128(seed, p.client.Lo, p.client.Hi), uint64(p.clientPort))
	b := swiss.HashU64(swiss.Hash128(seed, p.server.Lo, p.server.Hi), uint64(p.serverPort))
	return swiss.HashU64(a+b, uint64(p.proto))
}

// entry is one slot of a recency table: a live flow's key, the bookkeeping
// the table keeps for it, and its owner's per-flow state. It holds no
// pointer when V holds none, so the GC never scans the slab.
type entry[V any] struct {
	key  packedKey
	hash uint64 // key.hash(seed)
	// lastSeen is the table clock at the flow's last packet. Expiry compares
	// against it rather than the packet time, so the recency list stays
	// exactly ordered — and the early-stop sweep exact — even when capture
	// timestamps jitter backwards.
	lastSeen time.Duration
	// prev/next thread the recency list (least recently touched at the
	// head); noIdx terminates.
	prev, next uint32
	val        V
}

// recency is the keyed recency table Table and Tracker are both built on: a
// swiss index over a slab of entries, an intrusive least-recently-touched
// list through the entries, and a monotone clock. Because the Tracker runs
// this very code, its idle sweep visits flows in the Table's order and
// stops where the Table's stops. Slots are recycled after remove, so
// references across statements use uint32 slots, never *entry.
type recency[V any] struct {
	idx        swiss.Index
	slab       swiss.Slab[entry[V]]
	seed       uint64
	head, tail uint32
	// clock is the maximum packet time observed; entries are stamped with
	// it (entry.lastSeen) on every touch.
	clock time.Duration
}

// init empties t under seed; 0 draws a random seed.
func (t *recency[V]) init(seed uint64) {
	for seed == 0 {
		seed = rand.Uint64()
	}
	t.seed, t.head, t.tail = seed, noIdx, noIdx
	t.idx.Init()
}

// node returns the entry at slot i.
func (t *recency[V]) node(i uint32) *entry[V] { return t.slab.At(i) }

func (t *recency[V]) hashOf(i uint32) uint64 { return t.slab.At(i).hash }

// Active returns the number of live flows.
func (t *recency[V]) Active() int { return t.idx.Len() }

// find returns the slot of key (hashed h), or noIdx. Only the stored
// orientation matches; orient resolves unoriented packets.
func (t *recency[V]) find(h uint64, key *packedKey) uint32 {
	for p := t.idx.Probe(h); ; p = p.Next() {
		for m := p.Match(); m != 0; m &= m - 1 {
			if s := p.Slot(m); t.slab.At(s).key.equals(key) {
				return s
			}
		}
		if p.Last() {
			return noIdx
		}
	}
}

// findEither resolves a packet's forward key in one probe: the hash is
// orientation-symmetric, so candidates are compared against both the key
// and its reverse (field by field, without building the reversed key). It
// returns the slot and whether the packet travels c2s under the stored
// orientation ((noIdx, true) on a miss).
func (t *recency[V]) findEither(h uint64, key *packedKey) (uint32, bool) {
	for p := t.idx.Probe(h); ; p = p.Next() {
		for m := p.Match(); m != 0; m &= m - 1 {
			s := p.Slot(m)
			if k := &t.slab.At(s).key; k.equals(key) {
				return s, true
			} else if k.reverses(key) {
				return s, false
			}
		}
		if p.Last() {
			return noIdx, true
		}
	}
}

// pureSYN reports a connection-opening segment: SYN without ACK.
func pureSYN(tcp bool, flags layers.TCPFlags) bool {
	return tcp && flags.Has(layers.TCPSyn) && !flags.Has(layers.TCPAck)
}

// orient is the one orientation rule: it sets key to a transport packet's
// canonical client→server key, packed, and returns the key's hash, the
// flow's slot (noIdx for a new flow) and whether the packet travels
// client→server. A live flow keeps its stored orientation; for a new one a
// pure SYN marks the sender as the client, then an address inside
// clientNets (when the other is outside), then the first sender.
func (t *recency[V]) orient(d *layers.Decoded, clientNets []netip.Prefix, key *packedKey) (uint64, uint32, bool) {
	key.set(d.SrcIP, d.DstIP, d.SrcPort, d.DstPort, d.Proto)
	h := key.hash(t.seed)
	i, c2s := t.findEither(h, key)
	if i == noIdx && !pureSYN(d.HasTCP, d.TCPFlags) &&
		containsAddr(clientNets, d.DstIP) && !containsAddr(clientNets, d.SrcIP) {
		c2s = false
	}
	if !c2s {
		*key = key.reverse()
	}
	return h, i, c2s
}

func containsAddr(nets []netip.Prefix, a netip.Addr) bool {
	for _, p := range nets {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// add files key (hashed h) in a fresh slot at the recency tail and returns
// the slot. Its val keeps whatever the slot's previous flow left there.
func (t *recency[V]) add(key *packedKey, h uint64) uint32 {
	i := t.slab.Alloc()
	e := t.slab.At(i)
	e.key, e.hash = *key, h
	t.idx.Insert(h, i, t.hashOf)
	t.pushBack(i)
	return i
}

// touch advances the clock to at and makes slot i the most recently
// touched flow, stamped with the clock.
func (t *recency[V]) touch(i uint32, at time.Duration) {
	if at > t.clock {
		t.clock = at
	}
	if t.tail != i {
		t.unlink(i)
		t.pushBack(i)
	}
	t.slab.At(i).lastSeen = t.clock
}

// remove drops slot i from the index and the list and frees it.
func (t *recency[V]) remove(i uint32) {
	t.idx.Delete(t.slab.At(i).hash, i)
	t.unlink(i)
	t.slab.Free(i)
}

// sweepIdle walks from the least recently touched flow and hands each one
// idle for at least timeout as of now to expire, which must remove it,
// stopping at the first flow inside the window: O(expired), not O(active).
// It returns the number of flows examined.
func (t *recency[V]) sweepIdle(now, timeout time.Duration, expire func(slot uint32)) int {
	n := 0
	for t.head != noIdx {
		n++
		if now-t.slab.At(t.head).lastSeen < timeout {
			break
		}
		expire(t.head)
	}
	return n
}

func (t *recency[V]) pushBack(i uint32) {
	e := t.slab.At(i)
	e.prev, e.next = t.tail, noIdx
	if t.tail != noIdx {
		t.slab.At(t.tail).next = i
	} else {
		t.head = i
	}
	t.tail = i
}

func (t *recency[V]) unlink(i uint32) {
	e := t.slab.At(i)
	if e.prev != noIdx {
		t.slab.At(e.prev).next = e.next
	} else {
		t.head = e.next
	}
	if e.next != noIdx {
		t.slab.At(e.next).prev = e.prev
	} else {
		t.tail = e.prev
	}
}
