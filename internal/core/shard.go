package core

// Sharded execution (Shards > 1): dispatchers parse frames, extract and
// orient flow keys, and hand each shard pre-framed (key, direction, flags,
// payload-handle) entries over bounded lock-free SPSC rings (see ring.go).
// Each shard runs its own single-threaded DNHunter (resolver Clist, flow
// table, tag slice). The paper suggests exactly this partitioning for
// parallel deployments (§3.1.1): all state is keyed by client, so clients
// can be split across independent pipelines with no shared mutable state.
//
// With Readers == 1 one goroutine block-reads, parses, and dispatches. With
// Readers > 1 the same argument is applied once more, upstream: the parse
// itself is keyed by client too, so a thin stripe stage (see stripe.go)
// routes raw frames by a ~40-byte header peek onto R dispatcher partitions,
// each with its own parser and flow tracker, and every (reader, shard) pair
// gets its own SPSC ring — the MPSC hand-off is composed from R×S SPSC
// rings, no new lock-free structure.
//
// Equivalence with the single-threaded pipeline is exact, not approximate,
// because each dispatcher mirrors every piece of global state that decides
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
//     With Readers > 1 the stripe owns the sweep schedule and the global
//     clock, broadcasting in-band sweep markers so every partition expires
//     at the same trace times (see stripe.go for the full argument).
//
// The intentional deviations: each shard has its own Clist of the
// configured size, so aggregate eviction behaviour differs from one global
// Clist once a shard overflows (size it for the per-shard population); and
// with Readers > 1, flows whose two endpoints are both inside or both
// outside the client networks ride a symmetric fallback stripe, so their
// ordering against either endpoint's DNS stream is best-effort.

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
)

// defaultBatch is the most entries a shard takes from one ring per pass:
// large enough to amortize the consume/release hand-off, small enough that
// the fair sweep over a shard's reader rings stays fair. It is not a
// latency knob — producers publish per read block, however few entries
// that is (see ring.go).
const defaultBatch = 512

// ringDepth is a ring's capacity in batches (ringDepth × Batch entries) and
// the top of the ring_depth gauge: enough queue that a briefly stalled
// consumer does not back-pressure its producer, little enough that total
// ring memory stays modest.
const ringDepth = 8

// blockLen is how many packets the reader stage requests per block read.
const blockLen = 256

// shardWorker owns one pipeline shard, draining one ring per reader.
type shardWorker struct {
	h     *DNHunter
	rings []*ring[shardEntry] // one per reader, all waking the shared gate
	gate  *consGate
}

// run drains the shard's reader rings until all close, then flushes the
// shard's flow table. The scan is a fair fixed-order sweep: each pass
// consumes at most one batch per ring, so no reader partition can starve
// another, and the shard parks once on its shared gate (any producer
// wakes it) when no ring has work. When abort is set (cancellation) it
// keeps consuming — release keeps returning block references — so no
// dispatcher ever blocks on a full ring, but stops processing.
//
//dnhunter:hotpath
func (w *shardWorker) run(wg *sync.WaitGroup, abort *atomic.Bool) {
	defer wg.Done()
	//dnhunter:alloc-ok one-time per-run drain bookkeeping, not per-packet
	done := make([]bool, len(w.rings))
	for remaining := len(w.rings); remaining > 0; {
		progressed := false
		for i, r := range w.rings {
			if done[i] {
				continue
			}
			if s := r.tryConsume(); len(s) > 0 {
				if !abort.Load() {
					w.process(s)
				}
				r.release(s)
				progressed = true
				continue
			}
			if r.drained() {
				done[i] = true
				remaining--
				progressed = true
			}
		}
		if progressed || remaining == 0 {
			continue
		}
		for spins := 0; ; {
			if w.anyReady(done) {
				break
			}
			if spins < ringConsumerSpins {
				spins++
				runtime.Gosched()
				continue
			}
			w.gate.parked.Store(true)
			if w.anyReady(done) {
				w.gate.parked.Store(false)
				break
			}
			<-w.gate.wake
			w.gate.parked.Store(false)
			spins = 0
		}
	}
	if !abort.Load() {
		w.h.Close()
	}
}

// anyReady reports whether any still-open ring has published entries or a
// close to observe.
func (w *shardWorker) anyReady(done []bool) bool {
	for i, r := range w.rings {
		if !done[i] && r.ready() {
			return true
		}
	}
	return false
}

// process applies one consumed batch to the shard pipeline.
//
//dnhunter:hotpath
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
		}
	}
}

// dispatcher parses and routes one reader partition.
type dispatcher struct {
	reader  int
	nshards int
	parser  layers.Parser
	rings   []*ring[shardEntry] // this reader's row of the (reader, shard) mesh
	cell    *readerCell

	// tracker mirrors the shard tables' flow lifecycle over this partition's
	// packet order; assign/expire are its prebound callbacks (bound once so
	// the per-packet Route call passes a plain func value, no closure).
	tracker *flows.Tracker
	assign  func(netip.Addr) uint32
	expire  func(flows.Key, uint64, uint32)
	// idle/sweepMark drive the amortized sweep on the Readers==1 path; with
	// Readers>1 the stripe owns the schedule and ships srcSweep markers.
	idle      time.Duration
	sweepMark time.Duration

	// shed, when non-nil, switches enqueue from blocking back-pressure to
	// overload shedding: entries bound for a full ring are dropped (and
	// counted per reader per shard) instead of stalling the reader. Serve
	// mode sets it; batch runs keep the blocking behaviour. Expiry commands
	// and flow-closing segments are never shed — see enqueue.
	shed *ShedStats
}

// runSharded is the Shards>1 path.
func (e *Engine) runSharded(ctx context.Context, src netio.BlockRefSource) (*Result, error) {
	n := e.cfg.Shards
	nr := e.cfg.Readers
	if nr < 1 {
		nr = 1
	}
	sink := SyncSink(e.cfg.Sink)

	seed := rand.Uint64() | 1 // shared tracker/table hash seed, never zero
	workers := make([]*shardWorker, n)
	gates := make([]*consGate, n)
	for i := range workers {
		fcfg := e.cfg.Flows
		fcfg.DisableAutoSweep = true // dispatcher drives expiry via tracker commands
		fcfg.OnRecord = nil          // engine-managed; see EngineConfig.Flows
		fcfg.Seed = seed
		gates[i] = newConsGate()
		workers[i] = &shardWorker{
			h: New(sinkConfig(Config{
				Resolver:  e.cfg.Resolver,
				Flows:     fcfg,
				Truth:     e.cfg.Truth,
				Vantage:   e.cfg.Vantage,
				DiscardDB: e.cfg.DiscardDB,
			}, sink)),
			gate: gates[i],
		}
	}
	// The (reader, shard) ring mesh: dispatcher r produces into mesh[r],
	// shard s consumes mesh[·][s] through its shared gate.
	cells := make([]readerCell, nr)
	mesh := make([][]*ring[shardEntry], nr)
	for r := range mesh {
		mesh[r] = make([]*ring[shardEntry], n)
		for s := range mesh[r] {
			ring := newRing(ringDepth, e.cfg.Batch, gates[s], (*shardEntry).dropRef)
			ring.parks = &cells[r].meshParks
			mesh[r][s] = ring
		}
	}
	for i, w := range workers {
		w.rings = make([]*ring[shardEntry], nr)
		for r := 0; r < nr; r++ {
			w.rings[r] = mesh[r][i]
		}
	}
	if e.cfg.tapPipelines != nil {
		// Serve-mode seam: expose the shard pipelines (checkpoint restore
		// writes resolver state here) before the first packet is dispatched.
		hs := make([]*DNHunter, n)
		for i, w := range workers {
			hs[i] = w.h
		}
		e.cfg.tapPipelines(hs)
	}
	var (
		wg    sync.WaitGroup
		abort atomic.Bool
	)
	for _, w := range workers {
		wg.Add(1)
		go w.run(&wg, &abort)
	}

	// One shared hash seed: each tracker computes a flow key's hash once at
	// dispatch and ships it; shard tables (built with the same seed via
	// fcfg.Seed above) use it directly instead of re-hashing per packet.
	dispatchers := make([]*dispatcher, nr)
	for r := range dispatchers {
		tracker := flows.NewTracker(e.cfg.Flows.ClientNets, e.cfg.Flows.IdleTimeout, seed)
		d := &dispatcher{
			reader:  r,
			nshards: n,
			rings:   mesh[r],
			cell:    &cells[r],
			tracker: tracker,
			idle:    tracker.IdleTimeout(), // lockstep with flows.NewTable's default
		}
		d.assign = d.shardOf
		d.expire = d.enqueueExpire
		dispatchers[r] = d
	}
	if e.cfg.Shed != nil {
		e.cfg.Shed.init(nr, n)
		for _, d := range dispatchers {
			d.shed = e.cfg.Shed
		}
	}
	if e.cfg.tapRings != nil {
		// Shard-major flattening: ring i*nr+r is (reader r → shard i), so
		// per-shard gauges group a shard's rings contiguously.
		flat := make([]*ring[shardEntry], 0, nr*n)
		for s := 0; s < n; s++ {
			for r := 0; r < nr; r++ {
				flat = append(flat, mesh[r][s])
			}
		}
		e.cfg.tapRings(flat)
	}
	if e.cfg.tapReaders != nil {
		e.cfg.tapReaders(cells)
	}

	// One read loop for both shapes. With one reader the Run goroutine
	// parses and dispatches each block itself; with more it becomes the
	// stripe (raw-frame routing only) and each dispatcher drains its own
	// ingress ring on its own goroutine.
	var runErr error
	if nr == 1 {
		d := dispatchers[0]
		runErr = readLoop(ctx, src, d.dispatchBlock)
		abort.Store(runErr != nil)
		closeRings(d.rings)
	} else {
		ingress := make([]*ring[srcEntry], nr)
		for r := range ingress {
			ingress[r] = newRing(ringDepth, e.cfg.Batch, newConsGate(), (*srcEntry).dropRef)
			ingress[r].parks = &cells[r].parks
		}
		st := &stripe{
			ingress: ingress,
			nets:    e.cfg.Flows.ClientNets,
			cells:   cells,
			idle:    dispatchers[0].idle,
			shed:    e.cfg.Shed != nil,
		}
		var dwg sync.WaitGroup
		for r, d := range dispatchers {
			dwg.Add(1)
			go d.runLoop(&dwg, ingress[r], &abort)
		}
		runErr = readLoop(ctx, src, st.routeBlock)
		abort.Store(runErr != nil)
		closeRings(ingress)
		// Dispatchers drain their ingress rings (releasing block refs even
		// under abort) and close their mesh rows; shards keep consuming
		// under abort, so this join cannot deadlock.
		dwg.Wait()
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}

	// Merge: per-shard databases in shard order (deterministic for a fixed
	// shard count), counters summed; parser stats summed over dispatchers.
	db := flowdb.New()
	dbs := make([]*flowdb.DB, n)
	var st Stats
	st.Parser = dispatchers[0].parser.Stats
	for _, d := range dispatchers[1:] {
		st.Parser.Add(d.parser.Stats)
	}
	for i, w := range workers {
		dbs[i] = w.h.DB()
		st.Add(w.h.Stats())
	}
	db.Merge(dbs...)
	readers := make([]ReaderStat, nr)
	for i := range cells {
		c := &cells[i]
		readers[i] = ReaderStat{
			Pkts:          c.pkts.Load(),
			RingFullParks: c.parks.Load(),
			MeshFullParks: c.meshParks.Load(),
			ShedFrames:    c.shedFrames.Load(),
		}
	}
	return &Result{DB: db, Stats: st, Readers: readers}, nil
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

// readerSalt decorrelates reader striping from shard routing. Feeding the
// same digest to both dimensions would make reader ≈ shard whenever their
// counts match — a diagonal mesh where each dispatcher feeds mostly one
// shard and load skew compounds instead of spreading. Salting before the
// mix64 avalanche gives the reader dimension independent high bits with
// the same determinism. The constant is 2^64/φ.
const readerSalt = 0x9E3779B97F4A7C15

// shardOfAddr maps a client address onto one of n shards.
func shardOfAddr(client netip.Addr, n int) uint32 {
	return fastRange(mix64(addrHash(client)), n)
}

// readerOfAddr maps a client address onto one of n reader partitions.
func readerOfAddr(client netip.Addr, n int) uint32 {
	return fastRange(mix64(addrHash(client)^readerSalt), n)
}

// readerOfPair is the direction-symmetric fallback stripe for flows with
// no single client-side endpoint (both or neither address in the client
// networks): commutative in (a, b), so both directions land together.
func readerOfPair(a, b netip.Addr, n int) uint32 {
	return fastRange(mix64((addrHash(a)+addrHash(b))^readerSalt), n)
}

// shardOf routes a client address onto this dispatcher's shards.
func (d *dispatcher) shardOf(client netip.Addr) uint32 {
	return shardOfAddr(client, d.nshards)
}

// publishRings makes everything a producer has put on its rings visible.
// Producers call it whenever they are about to wait for more input — the
// end of a read block, an ingress ring run dry — so an entry is never
// parked behind traffic that has not arrived yet.
func publishRings[E any](rings []*ring[E]) {
	for _, r := range rings {
		r.publish()
	}
}

// closeRings ends a producer's streams (see ring.close).
func closeRings[E any](rings []*ring[E]) {
	for _, r := range rings {
		r.close()
	}
}

// dispatchBlock is the Readers==1 read-loop consumer: route each frame,
// then run the amortized sweep, after the packet, at the same trace times
// a single-threaded table would sweep inside Add; then publish the block's
// entries before the next read, which may block for as long as the link
// is quiet.
//
//dnhunter:hotpath
func (d *dispatcher) dispatchBlock(pkts []netio.Packet, blk *netio.Block) {
	d.cell.pkts.Add(uint64(len(pkts)))
	for i := range pkts {
		at := pkts[i].Timestamp
		if d.route(at, pkts[i].Data, blk) && at-d.sweepMark >= d.idle {
			d.sweepMark = at
			d.tracker.ExpireIdle(at, d.expire)
		}
	}
	publishRings(d.rings)
}

// runLoop is a striped dispatcher's goroutine body: drain this partition's
// ingress ring — publishing the mesh row whenever the ingress runs dry, so
// no entry waits on an idle upstream — then close the mesh row. Under abort
// it keeps draining — returning every block reference — but stops
// processing, so the stripe never wedges on a full ingress ring.
func (d *dispatcher) runLoop(dwg *sync.WaitGroup, in *ring[srcEntry], abort *atomic.Bool) {
	defer dwg.Done()
	for {
		s := in.tryConsume()
		if len(s) == 0 {
			publishRings(d.rings)
			if s = in.consume(); s == nil {
				break
			}
		}
		if !abort.Load() {
			for i := range s {
				d.dispatchEntry(&s[i])
			}
		}
		in.release(s)
	}
	closeRings(d.rings)
}

// dispatchEntry handles one striped ingress entry: sweep markers expire
// this partition; packets are routed with the tracker clock pre-advanced to
// the stripe's global flow clock so lastSeen stamps match the single-reader
// pipeline exactly (Route's own monotone-max then no-ops: at ≤ the shipped
// clock by construction; the clock is only read when Route stamps a flow,
// so advancing it for DNS and unparseable frames too changes nothing).
//
//dnhunter:hotpath
func (d *dispatcher) dispatchEntry(se *srcEntry) {
	if se.kind == srcSweep {
		d.tracker.ExpireIdle(se.at, d.expire)
		return
	}
	d.tracker.AdvanceClock(se.clock)
	d.route(se.at, se.data, se.blk)
}

// route parses one frame and routes it, reporting whether it took the flow
// path. It mirrors DNHunter.HandlePacket's branching exactly: parse
// failures are only counted, UDP port-53 traffic goes to the DNS path,
// everything else to the flow path.
//
//dnhunter:hotpath
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

// enqueueExpire ships one centrally-computed idle expiry to the owning
// shard, in-band with its packet stream, hash included so the shard's
// table probe skips hashKey just like the entryFlow path.
func (d *dispatcher) enqueueExpire(key flows.Key, hash uint64, shard uint32) {
	d.enqueue(int(shard), shardEntry{kind: entryExpire, key: key, hash: hash}, nil, nil)
}

// enqueue puts an entry on the shard's ring; the caller's next publishRings
// makes it visible. The payload travels by handle: pay aliases blk's
// refcounted arena (or stable source storage when blk is nil) and the
// entry takes one block reference, returned when the shard releases it — no
// byte of payload is copied on this path. In the default (batch) mode a
// full ring blocks: that is the back-pressure that bounds dispatcher
// run-ahead. In shed mode the entry is dropped instead (and counted per
// reader per shard) — a live reader must never stall on a slow shard. Two
// entry classes are still never shed, because dropping them would corrupt
// state rather than degrade coverage: expiry commands (auto-sweep is
// disabled on shard tables, so a dropped expiry leaks the flow entry until
// drain) and RST/FIN segments (the tracker has already forgotten the flow,
// so the shard table must see the close too). Both are rare, so the
// bounded wait they may incur does not stall the reader at packet rate.
func (d *dispatcher) enqueue(sh int, e shardEntry, pay []byte, blk *netio.Block) {
	wait := d.shed == nil || e.kind == entryExpire ||
		e.tcp && e.flags&(layers.TCPRst|layers.TCPFin) != 0
	if len(pay) > 0 {
		e.pay, e.blk = pay, blk
	}
	if !d.rings[sh].put(e, wait) {
		d.shed.drop(d.reader, sh, e.kind, len(pay))
		return
	}
	// The caller's own reference keeps blk alive until the entry has its own.
	if e.blk != nil {
		blk.Retain(1)
	}
}
