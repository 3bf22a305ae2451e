package core

// The parallel pre-parse fanout (Readers > 1): one stripe goroutine reads
// blocks and routes each raw frame — via netio.PeekFrame, an exact ~40-byte
// mirror of the parser's accept/reject rules — onto one of R ingress rings.
// Each ring feeds a dispatcher goroutine that owns a disjoint client
// partition: its own layers.Parser, its own flows.Tracker, and its own row
// of dispatcher→shard mesh rings. The stripe hashes the frame's CLIENT
// address (not a symmetric flow hash): all of one client's flow packets AND
// its DNS responses land on the same dispatcher, preserving the per-client
// DNS-insert-before-flow-lookup ordering that labeling equivalence needs.
//
// Partition-ownership invariants (see docs/ARCHITECTURE.md for the full
// argument):
//
//   - Affinity. A 5-tuple always routes to the same reader: the in-nets
//     test is a static property of each address and the fallback hash is
//     direction-symmetric, so a flow's packets never split across trackers.
//   - Clock. The stripe owns the global flow clock (monotone max of
//     flow-path packet times) and ships it with every entry; dispatchers
//     pre-advance their tracker (Tracker.AdvanceClock) so lastSeen stamps
//     equal the single-reader pipeline's under timestamp jitter.
//   - Sweep. The stripe owns the sweep schedule: at exactly the trace
//     times the single-reader dispatcher would sweep, it broadcasts an
//     in-band sweep marker to every ingress ring; each dispatcher then
//     expires its own partition at that time. Per-partition recency lists
//     are lastSeen-sorted, so the early-stop walk computes the exact
//     threshold set and the union over partitions equals the global sweep.
//   - Frames. Every frame — including ones the peek rejects — is forwarded
//     to exactly one dispatcher and fully parsed there, so the summed
//     parser stats match the single-reader pipeline's.

import (
	"net/netip"
	"time"

	"repro/internal/netio"
)

// srcEntry kinds carried by the ingress rings.
const (
	srcPacket uint8 = iota // one raw frame
	srcSweep               // sweep marker: expire the partition at time at
)

// srcEntry is one stripe→dispatcher unit: a raw frame plus the global flow
// clock at its position in the stream (srcPacket), or an in-band sweep
// marker (srcSweep). Entries live in reused ring storage; a *srcEntry
// must never outlive the batch it was delivered in. data aliases blk's
// refcounted arena (or stable source storage when blk is nil) and the
// entry holds one block reference, returned when the dispatcher releases it.
//
//dnhunter:slab
type srcEntry struct {
	at    time.Duration
	clock time.Duration // global flow clock (max flow-path time seen)
	data  []byte        // raw Ethernet frame
	blk   *netio.Block
	kind  uint8
	// noShed exempts the entry from ingress shedding (sweep markers are
	// state, not coverage — dropping one would desynchronize expiry).
	noShed bool
}

// dropRef clears the entry's frame handle and returns the block it held a
// reference on (nil for none).
func (e *srcEntry) dropRef() *netio.Block {
	b := e.blk
	e.blk, e.data = nil, nil
	return b
}

// stripe is the reader-fanout stage state (one goroutine).
type stripe struct {
	ingress []*ring[srcEntry] // one per reader, each with its own consGate
	nets    []netip.Prefix
	cells   []readerCell

	idle      time.Duration
	sweepMark time.Duration
	clock     time.Duration // global flow clock (monotone max)
	shed      bool          // drop raw frames instead of blocking on a full ring
}

// inNets reports whether any prefix contains a (flows.containsAddr's rule;
// addresses come from PeekFrame as AddrFrom4/AddrFrom16, exactly like the
// parser's, so membership agrees with the trackers' orientation test).
func inNets(nets []netip.Prefix, a netip.Addr) bool {
	for _, p := range nets {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// routeBlock is the stripe's read-loop consumer: route the block's frames,
// then publish them before the next read.
//
//dnhunter:hotpath
func (st *stripe) routeBlock(pkts []netio.Packet, blk *netio.Block) {
	for i := range pkts {
		st.route(pkts[i], blk)
	}
	publishRings(st.ingress)
}

// route classifies one raw frame and appends it to its reader's ingress
// ring, then broadcasts a sweep marker when the frame crossed the sweep
// schedule — the same "after the triggering packet" order the
// single-reader dispatcher uses.
//
//dnhunter:hotpath
func (st *stripe) route(pkt netio.Packet, blk *netio.Block) {
	pk, ok := netio.PeekFrame(pkt.Data)
	at := pkt.Timestamp
	nr := len(st.ingress)
	var r uint32
	flowPath := false
	if ok {
		if pk.UDP && (pk.SrcPort == 53 || pk.DstPort == 53) {
			// Mirror dispatcher.route's DNS attribution: responses (QR set)
			// belong to DstIP, everything else spreads by SrcIP.
			client := pk.Src
			if pk.DNSResponse {
				client = pk.Dst
			}
			r = readerOfAddr(client, nr)
		} else {
			flowPath = true
			sin, din := inNets(st.nets, pk.Src), inNets(st.nets, pk.Dst)
			switch {
			case sin && !din:
				r = readerOfAddr(pk.Src, nr)
			case din && !sin:
				r = readerOfAddr(pk.Dst, nr)
			default:
				// Both or neither endpoint monitored: no single client-side
				// address. A direction-symmetric hash keeps the flow on one
				// tracker; its ordering against either endpoint's DNS
				// stream is best-effort (see ARCHITECTURE.md deviations).
				r = readerOfPair(pk.Src, pk.Dst, nr)
			}
			if at > st.clock {
				st.clock = at
			}
		}
	}
	st.cells[r].pkts.Add(1)
	st.append(int(r), srcEntry{at: at, clock: st.clock, data: pkt.Data, blk: blk, kind: srcPacket})
	if flowPath && at-st.sweepMark >= st.idle {
		st.sweepMark = at
		for i := range st.ingress {
			// Sweep markers are state, not coverage: never shed, in-band
			// behind the packets they must expire after.
			st.append(i, srcEntry{at: at, kind: srcSweep, noShed: true})
		}
	}
}

// append puts one entry on reader r's ingress ring, taking a block
// reference for the frame it carries (routeBlock's own reference covers the
// moment in between). In shed mode a full ring drops the frame (counted per
// reader) instead of stalling the stripe; sweep markers always block.
func (st *stripe) append(r int, e srcEntry) {
	if !st.ingress[r].put(e, !st.shed || e.noShed) {
		st.cells[r].shedFrames.Add(1)
		return
	}
	if e.blk != nil {
		e.blk.Retain(1)
	}
}
