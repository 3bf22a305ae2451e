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

// packedKey is a Key as a recency entry stores it: its address pair as a
// swiss.Pairs word and family bits — two IPv4 addresses inline, any other
// pair in a side cell of the table's recency.pairs — then its ports and
// protocol, in 16 bytes and no pointer (a netip.Addr holds one).
type packedKey struct {
	pair                   uint64 // swiss.Pairs word
	clientPort, serverPort uint16
	proto                  layers.IPProtocol
	fam                    uint8 // swiss family bits
}

// probeKey is a Key as a probe builds it from a packet, on the stack: both
// addresses in full (swiss.PairKey), so it compares with a stored key's
// side cell without filing one.
type probeKey struct {
	pair                   swiss.PairKey
	clientPort, serverPort uint16
	proto                  layers.IPProtocol
}

// set packs the key (client, server, cport, sport, proto) into p. It
// writes field by field: building a probeKey value and copying it costs as
// much as the conversion itself.
func (p *probeKey) set(client, server netip.Addr, cport, sport uint16, proto layers.IPProtocol) {
	p.pair.Set(client, server)
	p.clientPort, p.serverPort, p.proto = cport, sport, proto
}

// key returns p as a Key.
func (p *probeKey) key() Key {
	c, s := p.pair.Addrs()
	return Key{ClientIP: c, ServerIP: s, ClientPort: p.clientPort, ServerPort: p.serverPort, Proto: p.proto}
}

// reverse swaps p's endpoints.
func (p *probeKey) reverse() {
	p.pair.Reverse()
	p.clientPort, p.serverPort = p.serverPort, p.clientPort
}

// hash mixes a probe key for table placement. The two (address, port)
// endpoint hashes combine by addition (swiss.PairKey.HashEnds), so a key
// and its reverse hash identically: one probe resolves a packet in either
// direction (the probe compares candidates against both orientations),
// where an orientation-sensitive hash would cost a full second probe for
// every server→client packet.
func (p *probeKey) hash(seed uint64) uint64 {
	return swiss.HashU64(p.pair.HashEnds(seed, p.clientPort, p.serverPort), uint64(p.proto))
}

// equals reports whether k, whose side cell is in ps, is p.
func (k *packedKey) equals(ps *swiss.Pairs, p *probeKey) bool {
	return k.clientPort == p.clientPort && k.serverPort == p.serverPort && k.proto == p.proto &&
		ps.Equal(k.pair, k.fam, &p.pair)
}

// reverses reports whether k, whose side cell is in ps, is p with its
// endpoints swapped.
func (k *packedKey) reverses(ps *swiss.Pairs, p *probeKey) bool {
	return k.clientPort == p.serverPort && k.serverPort == p.clientPort && k.proto == p.proto &&
		ps.Reverses(k.pair, k.fam, &p.pair)
}

// key returns k, whose side cell is in ps, as a Key.
func (k *packedKey) key(ps *swiss.Pairs) Key {
	var p probeKey
	ps.Load(&p.pair, k.pair, k.fam)
	p.clientPort, p.serverPort, p.proto = k.clientPort, k.serverPort, k.proto
	return p.key()
}

// entry is one slot of a recency table: a live flow's key, the bookkeeping
// the table keeps for it, and its owner's per-flow state. It holds no
// pointer when V holds none, so the GC never scans the slab.
type entry[V any] struct {
	key  packedKey
	hash uint64 // the probeKey hash of key under the table's seed
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
	idx  swiss.Index
	slab swiss.Slab[entry[V]]
	// pairs holds the side cells of the entries' non-IPv4 address pairs:
	// add takes one and remove frees it.
	pairs      swiss.Pairs
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
func (t *recency[V]) find(h uint64, key *probeKey) uint32 {
	for p := t.idx.Probe(h); ; p = p.Next() {
		for m := p.Match(); m != 0; m &= m - 1 {
			if s := p.Slot(m); t.slab.At(s).key.equals(&t.pairs, key) {
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
func (t *recency[V]) findEither(h uint64, key *probeKey) (uint32, bool) {
	for p := t.idx.Probe(h); ; p = p.Next() {
		for m := p.Match(); m != 0; m &= m - 1 {
			s := p.Slot(m)
			if k := &t.slab.At(s).key; k.equals(&t.pairs, key) {
				return s, true
			} else if k.reverses(&t.pairs, key) {
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
func (t *recency[V]) orient(d *layers.Decoded, clientNets []netip.Prefix, key *probeKey) (uint64, uint32, bool) {
	key.set(d.SrcIP, d.DstIP, d.SrcPort, d.DstPort, d.Proto)
	h := key.hash(t.seed)
	i, c2s := t.findEither(h, key)
	if i == noIdx && !pureSYN(d.HasTCP, d.TCPFlags) &&
		containsAddr(clientNets, d.DstIP) && !containsAddr(clientNets, d.SrcIP) {
		c2s = false
	}
	if !c2s {
		key.reverse()
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
func (t *recency[V]) add(key *probeKey, h uint64) uint32 {
	i := t.slab.Alloc()
	e := t.slab.At(i)
	e.key = packedKey{
		pair: t.pairs.Put(&key.pair), fam: key.pair.Fam,
		clientPort: key.clientPort, serverPort: key.serverPort, proto: key.proto,
	}
	e.hash = h
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

// remove drops slot i from the index and the list and frees it and its
// side cell.
func (t *recency[V]) remove(i uint32) {
	e := t.slab.At(i)
	t.idx.Delete(e.hash, i)
	t.pairs.Free(e.key.pair, e.key.fam)
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
