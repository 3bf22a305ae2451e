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

// entry is one slot of a recency table: a live flow's key, the bookkeeping
// the table keeps for it, and its owner's per-flow state.
type entry[V any] struct {
	key  Key
	hash uint64 // hashKey(seed, key)
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
func (t *recency[V]) find(h uint64, key Key) uint32 {
	for p := t.idx.Probe(h); ; p = p.Next() {
		for m := p.Match(); m != 0; m &= m - 1 {
			if s := p.Slot(m); t.slab.At(s).key.equals(&key) {
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
func (t *recency[V]) findEither(h uint64, key *Key) (uint32, bool) {
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
// canonical client→server key and returns the key's hash, the flow's slot
// (noIdx for a new flow) and whether the packet travels client→server. A
// live flow keeps its stored orientation; for a new one a pure SYN marks
// the sender as the client, then an address inside clientNets (when the
// other is outside), then the first sender.
func (t *recency[V]) orient(d *layers.Decoded, clientNets []netip.Prefix, key *Key) (uint64, uint32, bool) {
	*key = Key{
		ClientIP: d.SrcIP, ServerIP: d.DstIP,
		ClientPort: d.SrcPort, ServerPort: d.DstPort,
		Proto: d.Proto,
	}
	h := hashKey(t.seed, *key)
	i, c2s := t.findEither(h, key)
	if i == noIdx && !pureSYN(d.HasTCP, d.TCPFlags) &&
		containsAddr(clientNets, d.DstIP) && !containsAddr(clientNets, d.SrcIP) {
		c2s = false
	}
	if !c2s {
		*key = key.Reverse()
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
func (t *recency[V]) add(key Key, h uint64) uint32 {
	i := t.slab.Alloc()
	e := t.slab.At(i)
	e.key, e.hash = key, h
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
