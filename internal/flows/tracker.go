package flows

import (
	"net/netip"
	"time"

	"repro/internal/layers"
)

// Tracker mirrors a fleet of shard Tables from the dispatcher's seat: it
// applies the Table's orientation rule and entry lifecycle (create,
// RST/second-FIN teardown, idle expiry) to the global packet order, and
// remembers which shard owns each live flow. It is the Table's own keyed
// recency table with a shard number in place of the flow state, so its idle
// sweep visits flows in the same order and applies the same early-stop
// rule: the expired set it computes is exactly the set a single-threaded
// Table would expire at the same trace time — the foundation of the
// engine's exact shard-equivalence.
//
// Not safe for concurrent use; the single dispatcher goroutine owns it.
type Tracker struct {
	recency[route]
	clientNets []netip.Prefix
	idle       time.Duration
}

// route is a tracked flow's owning shard, and whether one FIN has been seen.
type route struct {
	shard   uint32
	closing bool
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
	tk := &Tracker{clientNets: clientNets, idle: idle}
	tk.init(seed)
	return tk
}

// IdleTimeout returns the effective idle timeout.
func (tk *Tracker) IdleTimeout() time.Duration { return tk.idle }

// Route mirrors Table.Add's orientation and lifecycle for one decoded
// transport packet: it returns the canonical flow key, the packet's
// direction under it, the key's hash (valid for tables sharing the
// tracker's seed — ship it via OrientedPacket.Hash), and the shard owning
// the flow. assign is called once per new flow with the flow's client
// address to pick its shard. The key/direction pair is exactly what the
// owning shard's Table will compute via AddOriented.
func (tk *Tracker) Route(d *layers.Decoded, at time.Duration, assign func(netip.Addr) uint32) (Key, bool, uint64, uint32) {
	var pk probeKey
	h, i, c2s := tk.orient(d, tk.clientNets, &pk)
	key := Key{ClientIP: d.SrcIP, ServerIP: d.DstIP, ClientPort: d.SrcPort, ServerPort: d.DstPort, Proto: d.Proto}
	if !c2s {
		key = key.Reverse()
	}
	if i == noIdx {
		i = tk.add(&pk, h)
		tk.node(i).val = route{shard: assign(key.ClientIP)}
	}
	tk.touch(i, at)
	r := &tk.node(i).val
	shard := r.shard
	if d.HasTCP {
		// Mirror advanceTCP's finish transitions so a reused 5-tuple
		// re-orients at the same packet the table re-creates it.
		switch {
		case d.TCPFlags.Has(layers.TCPRst):
			tk.remove(i)
		case d.TCPFlags.Has(layers.TCPFin):
			if r.closing {
				tk.remove(i)
			} else {
				r.closing = true
			}
		}
	}
	return key, c2s, h, shard
}

// ExpireIdle applies Table.FlushIdle's exact rule — the same sweep over the
// same recency list — and reports each victim's key, cached hash (valid for
// tables sharing the tracker's seed), and owning shard, in expiry order,
// after dropping it from the tracker.
func (tk *Tracker) ExpireIdle(now time.Duration, expire func(key Key, hash uint64, shard uint32)) {
	tk.sweepIdle(now, tk.idle, func(i uint32) {
		e := tk.node(i)
		key, hash, shard := e.key.key(&tk.pairs), e.hash, e.val.shard
		tk.remove(i)
		expire(key, hash, shard)
	})
}
