package flows

import (
	"math/rand/v2"
	"net/netip"
	"time"

	"repro/internal/layers"
	"repro/internal/swiss"
)

// Tracker mirrors a fleet of shard Tables from the dispatcher's seat: it
// applies the Table's exact orientation rules and entry lifecycle (create,
// RST/second-FIN teardown, idle expiry) to the global packet order, and
// remembers which shard owns each live flow. Because it uses the same
// swiss index and the same intrusive recency list as the Table, its idle
// sweep visits flows in the same order and applies the same early-stop
// rule, so the expired set it computes is exactly the set a
// single-threaded Table would expire at the same trace time — the
// foundation of the engine's exact shard-equivalence.
//
// Not safe for concurrent use; the single dispatcher goroutine owns it.
type Tracker struct {
	idx  keyIndex
	seed uint64
	// clock mirrors Table.clock: the monotone max of packet times, stamped
	// onto flows as lastSeen so ExpireIdle's early stop stays exact under
	// timestamp jitter.
	clock time.Duration
	// slab backs tracked flows in fixed-size chunks (see Table.slab).
	slab    [][]trackedFlow
	slabLen uint32
	free    []uint32
	// head/tail thread the recency list, least recently touched first.
	head, tail uint32
	clientNets []netip.Prefix
	idle       time.Duration
}

// trackedFlow is one live-flow mirror: its key and owning shard, the
// table clock at its last packet, and whether one FIN has been seen.
type trackedFlow struct {
	key        Key
	hash       uint64
	lastSeen   time.Duration
	prev, next uint32
	shard      uint32
	closing    bool
}

// NewTracker creates a flow tracker applying the given orientation
// networks and idle timeout (zero means the Table's 5-minute default, so
// the two stay in lockstep). seed fixes the hash seed (0 draws a random
// one); the engine passes the same nonzero seed to the shard tables so
// Route's hash can ship with each entry.
func NewTracker(clientNets []netip.Prefix, idle time.Duration, seed uint64) *Tracker {
	if idle <= 0 {
		idle = 5 * time.Minute
	}
	for seed == 0 {
		seed = rand.Uint64()
	}
	tk := &Tracker{
		seed:       seed,
		head:       noIdx,
		tail:       noIdx,
		clientNets: clientNets,
		idle:       idle,
	}
	tk.idx.init(16)
	return tk
}

// at returns the tracked flow at slab slot i.
func (tk *Tracker) at(i uint32) *trackedFlow { return &tk.slab[i>>slabChunkBits][i&slabChunkMask] }

// Active returns the number of live flows tracked.
func (tk *Tracker) Active() int { return tk.idx.used }

// IdleTimeout returns the effective idle timeout.
func (tk *Tracker) IdleTimeout() time.Duration { return tk.idle }

// findEither resolves a packet's forward key in one probe over the
// orientation-symmetric hash, exactly like Table.findEither.
func (tk *Tracker) findEither(h uint64, key, rev Key) (uint32, bool) {
	ix := &tk.idx
	h2 := swiss.H2(h)
	g := swiss.H1(h) & ix.gmask
	for step := uint64(1); ; step++ {
		w := ix.ctrl[g]
		for m := swiss.MatchH2(w, h2); m != 0; m &= m - 1 {
			s := ix.slots[g*swiss.GroupSize+uint64(swiss.FirstLane(m))]
			if k := &tk.at(s).key; *k == key {
				return s, true
			} else if *k == rev {
				return s, false
			}
		}
		if swiss.MatchEmpty(w) != 0 {
			return noIdx, true
		}
		g = (g + step) & ix.gmask
	}
}

func (tk *Tracker) removeKey(h uint64, key Key) {
	ix := &tk.idx
	h2 := swiss.H2(h)
	g := swiss.H1(h) & ix.gmask
	for step := uint64(1); ; step++ {
		w := ix.ctrl[g]
		for m := swiss.MatchH2(w, h2); m != 0; m &= m - 1 {
			lane := swiss.FirstLane(m)
			if s := ix.slots[g*swiss.GroupSize+uint64(lane)]; tk.at(s).key == key {
				if swiss.MatchEmpty(w) != 0 {
					ix.ctrl[g] = swiss.WithCtrl(w, lane, swiss.CtrlEmpty)
				} else {
					ix.ctrl[g] = swiss.WithCtrl(w, lane, swiss.CtrlDeleted)
					ix.tombs++
				}
				ix.used--
				return
			}
		}
		if swiss.MatchEmpty(w) != 0 {
			return
		}
		g = (g + step) & ix.gmask
	}
}

func (tk *Tracker) rehash() {
	ix := &tk.idx
	groups := len(ix.ctrl)
	if ix.used >= ix.growAt/2 {
		groups *= 2
	}
	oldCtrl, oldSlots := ix.ctrl, ix.slots
	ix.init(groups)
	for g, w := range oldCtrl {
		for lane := 0; lane < swiss.GroupSize; lane++ {
			if swiss.IsFull(swiss.CtrlAt(w, lane)) {
				s := oldSlots[g*swiss.GroupSize+lane]
				ix.insert(tk.at(s).hash, s)
			}
		}
	}
}

func (tk *Tracker) insertKey(h uint64, slot uint32) {
	if tk.idx.used+tk.idx.tombs >= tk.idx.growAt {
		tk.rehash()
	}
	tk.idx.insert(h, slot)
}

func (tk *Tracker) listPushBack(i uint32) {
	f := tk.at(i)
	f.prev, f.next = tk.tail, noIdx
	if tk.tail != noIdx {
		tk.at(tk.tail).next = i
	} else {
		tk.head = i
	}
	tk.tail = i
}

func (tk *Tracker) listRemove(i uint32) {
	f := tk.at(i)
	if f.prev != noIdx {
		tk.at(f.prev).next = f.next
	} else {
		tk.head = f.next
	}
	if f.next != noIdx {
		tk.at(f.next).prev = f.prev
	} else {
		tk.tail = f.prev
	}
	f.prev, f.next = noIdx, noIdx
}

func (tk *Tracker) touch(i uint32) {
	if tk.tail == i {
		return
	}
	tk.listRemove(i)
	tk.listPushBack(i)
}

func (tk *Tracker) newFlow() uint32 {
	if n := len(tk.free); n > 0 {
		i := tk.free[n-1]
		tk.free = tk.free[:n-1]
		return i
	}
	i := tk.slabLen
	if i>>slabChunkBits == uint32(len(tk.slab)) {
		tk.slab = append(tk.slab, make([]trackedFlow, slabChunkLen))
	}
	tk.slabLen++
	return i
}

// drop removes slot i from the index and the list and recycles it.
func (tk *Tracker) drop(i uint32) {
	f := tk.at(i)
	tk.removeKey(f.hash, f.key)
	tk.listRemove(i)
	f.key, f.hash, f.closing = Key{}, 0, false
	tk.free = append(tk.free, i)
}

// Route mirrors Table.Add's orientation and lifecycle for one decoded
// transport packet: it returns the canonical flow key, the packet's
// direction under it, the key's hash (valid for tables sharing the
// tracker's seed — ship it via OrientedPacket.Hash), and the shard owning
// the flow. assign is called once per new flow with the flow's client
// address to pick its shard. The key/direction pair is exactly what the
// owning shard's Table will compute via AddOriented.
func (tk *Tracker) Route(d *layers.Decoded, at time.Duration, assign func(netip.Addr) uint32) (Key, bool, uint64, uint32) {
	key := Key{
		ClientIP: d.SrcIP, ServerIP: d.DstIP,
		ClientPort: d.SrcPort, ServerPort: d.DstPort,
		Proto: d.Proto,
	}
	rev := key.Reverse()
	h := hashKey(tk.seed, key)
	i, c2s := tk.findEither(h, key, rev)
	if i != noIdx && !c2s {
		key = rev
	}
	if i == noIdx {
		if !(d.HasTCP && d.TCPFlags.Has(layers.TCPSyn) && !d.TCPFlags.Has(layers.TCPAck)) &&
			len(tk.clientNets) > 0 &&
			containsAddr(tk.clientNets, d.DstIP) && !containsAddr(tk.clientNets, d.SrcIP) {
			key, c2s = rev, false
		}
		i = tk.newFlow()
		f := tk.at(i)
		f.key, f.hash, f.shard = key, h, assign(key.ClientIP)
		tk.insertKey(h, i)
		tk.listPushBack(i)
	} else {
		tk.touch(i)
	}
	f := tk.at(i)
	if at > tk.clock {
		tk.clock = at
	}
	f.lastSeen = tk.clock
	shard := f.shard
	if d.HasTCP {
		// Mirror advanceTCP's finish transitions so a reused 5-tuple
		// re-orients at the same packet the table re-creates it.
		switch {
		case d.TCPFlags.Has(layers.TCPRst):
			tk.drop(i)
		case d.TCPFlags.Has(layers.TCPFin):
			if f.closing {
				tk.drop(i)
			} else {
				f.closing = true
			}
		}
	}
	return key, c2s, h, shard
}

// ExpireIdle applies Table.FlushIdle's exact rule — walk from the least
// recently touched flow, stop at the first one inside the idle window —
// and reports each victim's key, cached hash (valid for tables sharing
// the tracker's seed), and owning shard, in expiry order, after dropping
// it from the tracker.
func (tk *Tracker) ExpireIdle(now time.Duration, expire func(key Key, hash uint64, shard uint32)) {
	for tk.head != noIdx {
		i := tk.head
		f := tk.at(i)
		if now-f.lastSeen < tk.idle {
			break
		}
		key, hash, shard := f.key, f.hash, f.shard
		tk.drop(i)
		expire(key, hash, shard)
	}
}
