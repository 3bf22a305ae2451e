package core

// Sharded execution (Shards > 1): one dispatcher — the Run goroutine —
// block-reads and parses frames, extracts and orients flow keys, and hands
// each shard pre-framed (key, direction, flags, payload-handle) entries over
// that shard's bounded lock-free SPSC ring (see ring.go). Each shard runs
// its own single-threaded DNHunter (resolver Clist, flow table, tag slice).
// The paper suggests exactly this partitioning for parallel deployments
// (§3.1.1): all state is keyed by client, so clients can be split across
// independent pipelines with no shared mutable state.
//
// Equivalence with the single-threaded pipeline is exact, not approximate,
// because the dispatcher mirrors every piece of global state that decides
// where a packet must go (flows.Tracker — the same swiss index and recency
// list the Table itself runs on):
//
//   - Flow orientation. The tracker replicates the flow table's key set
//     and applies the table's own orientation rules (existing entry wins,
//     then SYN, then client networks, then first-sender), so each packet
//     is routed to the shard of the flow's eventual client — where that
//     client's resolver entries live. The oriented key and direction
//     travel with the entry, so shard tables skip orient entirely
//     (flows.AddOriented).
//   - Flow lifetime. The tracker removes entries on the same transitions
//     the table does (RST, second FIN), so a reused 5-tuple re-orients at
//     the same packet in both modes.
//   - Idle expiry. Shard tables run with the amortized auto-sweep
//     disabled; at the exact trace times a single-threaded table would
//     sweep, the expired set is computed centrally (Tracker.ExpireIdle
//     walks the recency list — FlushIdle's exact rule) and each owning
//     shard receives an in-band per-flow expiry command, so idle flows are
//     expired (and split into the same records) regardless of shard count.
//   - Serve windows. The dispatcher owns the capture clock: before the
//     packet that opens a window it puts an in-band window command on
//     every ring, so each shard seals its part of a window at the same
//     packet the single-shard loop seals at (see windows in serve.go).
//
// The intentional deviation: each shard has its own Clist of the configured
// size, so aggregate eviction behaviour differs from one global Clist once
// a shard overflows (size it for the per-shard population).

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
)

// defaultBatch is the most entries a shard takes from its ring per pass:
// large enough to amortize the consume/release hand-off, small enough that
// a released run returns its space to the dispatcher promptly. It is not a
// latency knob — producers publish per read block, however few entries
// that is (see ring.go).
const defaultBatch = 512

// ringDepth is a ring's capacity in batches (ringDepth × batch entries) and
// the top of the ring_depth gauge: enough queue that a briefly stalled
// consumer does not back-pressure its producer, little enough that total
// ring memory stays modest.
const ringDepth = 8

// blockLen is how many packets the dispatcher requests per block read.
const blockLen = 256

// shardWorker owns one pipeline shard and the consumer side of its ring.
type shardWorker struct {
	h    *DNHunter
	ring *ring
	win  *shardWindow // serve mode's window hand-off; nil in batch runs
}

// run drains the shard's ring until it closes, then flushes the shard's
// flow table and seals its final window. When abort is set (cancellation)
// it keeps consuming — release keeps returning block references — so the
// dispatcher never blocks on a full ring, but stops processing.
func (w *shardWorker) run(wg *sync.WaitGroup, abort *atomic.Bool) {
	defer wg.Done()
	for s := w.ring.consume(); s != nil; s = w.ring.consume() {
		if !abort.Load() {
			w.process(s)
		}
		w.ring.release(s)
	}
	if !abort.Load() {
		w.h.Close()
		w.win.close(w.h)
	}
}

// process applies one consumed batch to the shard pipeline.
func (w *shardWorker) process(s []shardEntry) {
	for i := range s {
		e := &s[i]
		switch e.kind {
		case entryFlow:
			w.h.handleOrientedFlow(e, e.pay)
		case entryDNS:
			w.h.handleDNSPayload(e.key.ClientIP, e.pay, e.at)
		case entryExpire:
			w.h.expireFlow(e.key, e.hash)
		case entryWindow:
			w.win.roll(w.h, e.at)
		}
	}
}

// dispatcher parses and routes every frame onto the shard rings.
type dispatcher struct {
	parser layers.Parser
	rings  []*ring // one per shard
	pkts   uint64  // frames read

	// tracker mirrors the shard tables' flow lifecycle over the packet
	// order; assign/expire are its prebound callbacks (bound once so the
	// per-packet Route call passes a plain func value, no closure).
	tracker *flows.Tracker
	assign  func(netip.Addr) uint32
	expire  func(flows.Key, uint64, uint32)
	// idle/sweepMark drive the amortized sweep (see dispatchBlock).
	idle      time.Duration
	sweepMark time.Duration

	// shed, when non-nil, switches enqueue from blocking back-pressure to
	// overload shedding: entries bound for a full ring are dropped (and
	// counted per shard) instead of stalling the reader. Serve mode sets
	// it; batch runs keep the blocking behaviour. Expiry and window
	// commands and flow-closing segments are never shed — see enqueue.
	shed *ShedStats

	// clock opens serve mode's windows (see openWindow); the zero clock of
	// a batch run never opens one.
	clock windowClock
}

// runSharded is the Shards>1 path.
func (e *Engine) runSharded(ctx context.Context, src netio.BlockRefSource) (*Result, error) {
	n := e.cfg.Shards
	sink := e.pipelineSink()

	// One shared hash seed: the tracker computes a flow key's hash once at
	// dispatch and ships it; shard tables (built with the same seed) use it
	// directly instead of re-hashing per packet.
	seed := rand.Uint64() | 1 // never zero
	tracker := flows.NewTracker(e.cfg.Flows.ClientNets, e.cfg.Flows.IdleTimeout, seed)
	d := &dispatcher{
		rings:   make([]*ring, n),
		tracker: tracker,
		idle:    tracker.IdleTimeout(), // lockstep with flows.NewTable's default
	}
	d.assign = d.shardOf
	d.expire = d.enqueueExpire
	workers := make([]*shardWorker, n)
	hs := make([]*DNHunter, n)
	for i := range workers {
		fcfg := e.cfg.Flows
		fcfg.DisableAutoSweep = true // dispatcher drives expiry via tracker commands
		fcfg.Seed = seed
		d.rings[i] = newRing(ringDepth, e.cfg.batch)
		hs[i] = e.newPipeline(fcfg, sink)
		workers[i] = &shardWorker{h: hs[i], ring: d.rings[i]}
	}
	ws, shed := e.cfg.server.start(hs, d.rings)
	d.clock, d.shed = ws.clock(), shed
	for i, w := range workers {
		w.win = ws.shard(i)
	}

	var (
		wg    sync.WaitGroup
		abort atomic.Bool
	)
	for _, w := range workers {
		wg.Add(1)
		go w.run(&wg, &abort)
	}
	runErr := readLoop(ctx, src, d.dispatchBlock)
	abort.Store(runErr != nil)
	if runErr != nil {
		ws.abort() // a shard may be waiting on the flusher in a seal
	}
	for _, r := range d.rings {
		r.close()
	}
	wg.Wait()
	if err := ws.wait(runErr); err != nil {
		return nil, err
	}

	// Merge: per-shard databases in shard order (deterministic for a fixed
	// shard count), counters summed.
	db := flowdb.New()
	dbs := make([]*flowdb.DB, n)
	st := Stats{Parser: d.parser.Stats}
	for i, h := range hs {
		dbs[i] = h.DB()
		st.Add(h.Stats())
	}
	db.Merge(dbs...)
	return &Result{DB: db, Stats: st, Readers: []ReaderStat{dispatchStat(d.pkts, d.rings)}}, nil
}

// fastRange reduces a 64-bit hash onto [0, n) with a multiply-shift
// (Lemire's fast range): the high word of h×n. Two multiplies cheaper than
// the old %, and uniform for well-mixed h. It consumes the hash's HIGH
// bits — FNV-1a's weak spot for short varying suffixes (an IPv4 host byte
// barely reaches them), so every caller finalizes through mix64 first.
func fastRange(h uint64, n int) uint32 {
	hi, _ := bits.Mul64(h, uint64(n))
	return uint32(hi)
}

// mix64 is the murmur3/splitmix64 finalizer: a bijective avalanche so
// every input bit reaches the high bits fastRange consumes.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// addrHash is the deterministic FNV-1a digest of an address (16-byte
// form): stable across runs and processes, so a fixed shard count always
// produces the same client partitioning. Serve-mode checkpoint restore
// relies on this to route snapshot entries to the shard that owns the
// client — even when the shard count changed across the restart.
func addrHash(a netip.Addr) uint64 {
	b := a.As16()
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// shardOfAddr maps a client address onto one of n shards.
func shardOfAddr(client netip.Addr, n int) uint32 {
	return fastRange(mix64(addrHash(client)), n)
}

// shardOf routes a client address onto the dispatcher's shards.
func (d *dispatcher) shardOf(client netip.Addr) uint32 {
	return shardOfAddr(client, len(d.rings))
}

// dispatchBlock is the read-loop consumer: route each frame, then run the
// amortized sweep, after the packet, at the same trace times a
// single-threaded table would sweep inside Add; then publish the block's
// entries before the next read, which may block for as long as the link
// is quiet.
func (d *dispatcher) dispatchBlock(pkts []netio.Packet, blk *netio.Block) {
	d.pkts += uint64(len(pkts))
	for i := range pkts {
		at := pkts[i].Timestamp
		if start, ok := d.clock.cross(at); ok {
			d.openWindow(start)
		}
		if d.route(at, pkts[i].Data, blk) && at-d.sweepMark >= d.idle {
			d.sweepMark = at
			d.tracker.ExpireIdle(at, d.expire)
		}
	}
	for _, r := range d.rings {
		r.publish()
	}
}

// route parses one frame and routes it, reporting whether it took the flow
// path. It mirrors DNHunter.HandlePacket's branching exactly: parse
// failures are only counted, UDP port-53 traffic goes to the DNS path,
// everything else to the flow path.
func (d *dispatcher) route(at time.Duration, frame []byte, blk *netio.Block) bool {
	dec, err := d.parser.Parse(frame)
	if err != nil {
		return false
	}
	if dec.HasUDP && (dec.SrcPort == 53 || dec.DstPort == 53) {
		// handleDNS attributes every response to DstIP, so responses MUST
		// land on shardOf(DstIP) — regardless of which port is 53 — or the
		// resolver entry would be invisible to that client's flows. Peek at
		// the header QR bit (byte 2, MSB) to spot responses; queries and
		// runts are dropped (or merely counted) by the shard, so for them
		// any choice preserves equivalence and SrcIP spreads the load of
		// unpacking queries across the clients that sent them.
		client := dec.SrcIP
		if len(dec.Payload) >= 3 && dec.Payload[2]&0x80 != 0 {
			client = dec.DstIP
		}
		d.enqueue(int(d.shardOf(client)), shardEntry{
			at:   at,
			kind: entryDNS,
			key:  flows.Key{ClientIP: dec.DstIP},
		}, dec.Payload, blk)
		return false
	}
	if !dec.HasTCP && !dec.HasUDP {
		return false // the flow table ignores these; don't ship them
	}
	// The tracker mirrors the table's orientation and entry lifecycle, so
	// the oriented key/direction ship with the entry and the shard's table
	// skips both the reverse probe and the orientation rules.
	key, c2s, kh, sh := d.tracker.Route(dec, at, d.assign)
	d.enqueue(int(sh), shardEntry{
		at:    at,
		kind:  entryFlow,
		key:   key,
		hash:  kh,
		c2s:   c2s,
		tcp:   dec.HasTCP,
		flags: dec.TCPFlags,
	}, dec.Payload, blk)
	return true
}

// openWindow opens the window at start on every shard, ahead of the
// packet that opened it.
func (d *dispatcher) openWindow(start time.Duration) {
	for sh := range d.rings {
		d.enqueue(sh, shardEntry{kind: entryWindow, at: start}, nil, nil)
	}
}

// enqueueExpire ships one centrally-computed idle expiry to the owning
// shard, in-band with its packet stream, hash included so the shard's
// table probe skips hashKey just like the entryFlow path.
func (d *dispatcher) enqueueExpire(key flows.Key, hash uint64, shard uint32) {
	d.enqueue(int(shard), shardEntry{kind: entryExpire, key: key, hash: hash}, nil, nil)
}

// enqueue puts an entry on the shard's ring; the end of the read block
// makes it visible. The payload travels by handle: pay aliases blk's
// refcounted arena (or stable source storage when blk is nil) and the
// entry takes one block reference, returned when the shard releases it — no
// byte of payload is copied on this path. In the default (batch) mode a
// full ring blocks: that is the back-pressure that bounds dispatcher
// run-ahead. In shed mode the entry is dropped instead (and counted per
// shard) — a live reader must never stall on a slow shard. Three
// entry classes are still never shed, because dropping them would corrupt
// state rather than degrade coverage: expiry commands (auto-sweep is
// disabled on shard tables, so a dropped expiry leaks the flow entry until
// drain), window commands (the flusher needs every shard's part of a
// window) and RST/FIN segments (the tracker has already forgotten the
// flow, so the shard table must see the close too). All are rare, so the
// bounded wait they may incur does not stall the reader at packet rate.
func (d *dispatcher) enqueue(sh int, e shardEntry, pay []byte, blk *netio.Block) {
	wait := d.shed == nil || e.kind == entryExpire || e.kind == entryWindow ||
		e.tcp && e.flags&(layers.TCPRst|layers.TCPFin) != 0
	if len(pay) > 0 {
		e.pay, e.blk = pay, blk
	}
	if !d.rings[sh].put(e, wait) {
		d.shed.drop(sh, e.kind, len(pay))
		return
	}
	// The caller's own reference keeps blk alive until the entry has its own.
	if e.blk != nil {
		blk.Retain(1)
	}
}
