package core

// The bounded lock-free SPSC ring behind both hand-offs of the sharded
// engine: dispatcher→shard (one ring of pre-parsed shardEntry batches per
// (reader, shard) pair) and, with Readers > 1, stripe→dispatcher (one ring
// of raw-frame srcEntry batches per reader; see stripe.go). Entries carry
// payloads by handle into refcounted netio.Block arenas (or stable source
// storage), so a payload moves from the packet source to the shard by
// reference, never by copy. Slot storage is allocated on a slot's first use
// and recycled in place forever after — no sync.Pool round-trips, no
// per-batch reallocation.
//
// The synchronization is the classic single-producer/single-consumer ring:
// a head index advanced only by the producer and a tail index advanced
// only by the consumer, each on its own cache line so the two sides never
// false-share. The producer side spins briefly (yielding to the scheduler,
// which on a saturated machine is the fast path) and then parks on a
// buffered wake channel, with the usual set-flag/recheck/sleep protocol so
// a wake is never lost. The consumer side may be shared: one shard drains R
// rings (one per reader) through a single consGate, so the MPSC hand-off
// is composed from SPSC rings without any new lock-free structure — see
// shardWorker.run for the fair drain loop.

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
)

// Entry kinds carried by ring slots.
const (
	entryFlow   uint8 = iota // pre-routed flow packet
	entryDNS                 // UDP/53 payload
	entryExpire              // idle-expiry command for one flow (key)
)

// shardEntry is one pre-parsed unit of shard work. The dispatcher has
// already parsed the frame, extracted and oriented the flow key, and
// decided the direction, so the shard touches only its own flow table and
// resolver — no re-parse, no re-orient. Entries live in slot storage that
// is recycled on release, so a *shardEntry must never outlive the batch it
// was delivered in. The payload handle (pay/blk) is slab-adjacent: pay
// aliases blk's refcounted arena (or stable source storage when blk is
// nil), the dispatcher takes one block reference per appended entry, and
// the ring returns them when the slot retires — so the bytes behind pay
// are valid for exactly as long as the entry itself.
//
//dnhunter:slab
type shardEntry struct {
	at  time.Duration
	key flows.Key // entryFlow/entryExpire: oriented flow key; entryDNS: ClientIP holds the attribution client (packet DstIP)
	// hash is the key's hash under the engine's shared seed
	// (entryFlow/entryExpire): computed once by the dispatcher's tracker,
	// consumed by the shard table via OrientedPacket.Hash / ExpireFlow.
	hash uint64
	// pay is the transport payload, aliasing blk's arena (or stable source
	// storage when blk is nil); nil when the entry carries no payload.
	pay []byte
	// blk is the refcounted block backing pay; the entry holds one
	// reference, returned when the slot retires.
	blk   *netio.Block
	kind  uint8
	c2s   bool // entryFlow: packet direction under key's orientation
	tcp   bool // entryFlow: transport is TCP
	flags layers.TCPFlags
}

// dropRef clears the entry's payload handle and returns the block it held
// a reference on (nil for none).
func (e *shardEntry) dropRef() *netio.Block {
	b := e.blk
	e.blk, e.pay = nil, nil
	return b
}

// ringSlot is one batch in flight. Capacity is fixed at ring construction.
type ringSlot[E any] struct {
	entries []E
}

// Spin budgets before parking. Each spin is a runtime.Gosched, which on a
// busy box hands the quantum straight to the peer goroutine — usually all
// that is needed. Parking beyond that keeps an idle ring from burning a
// core (a vantage stalled on the merge clock, a consumer waiting at EOF).
const (
	ringProducerSpins = 64
	ringConsumerSpins = 64
)

// cacheLinePad separates the producer- and consumer-owned indices so the
// two sides never invalidate each other's cache line.
type cacheLinePad [64]byte

// consGate is one consumer's park/wake state, shared by every ring that
// consumer drains (a shard parks once across its R reader rings; any of
// their producers wakes it). The usual set-flag/recheck/sleep protocol
// applies: the consumer stores parked, rechecks every ring, and only then
// sleeps, so a producer's wake is never lost.
type consGate struct {
	parked atomic.Bool
	wake   chan struct{}
}

func newConsGate() *consGate { return &consGate{wake: make(chan struct{}, 1)} }

// ring is the bounded single-producer/single-consumer slot ring over
// entries of type E. Exactly one goroutine may call producer methods (slot,
// trySlot, publish, discardFill, close) and exactly one may call consumer
// methods (tryConsume, consume, release) — the consumer may be shared across
// rings via the consGate.
//
//dnhunter:hotatomic
type ring[E any] struct {
	slots []ringSlot[E]
	mask  uint64

	_    cacheLinePad
	head atomic.Uint64 // slots published; advanced only by the producer
	_    cacheLinePad
	tail atomic.Uint64 // slots released; advanced only by the consumer
	_    cacheLinePad

	closed     atomic.Bool
	prodParked atomic.Bool
	prodWake   chan struct{}
	gate       *consGate

	// parks, when non-nil, counts producer park events (ring full past the
	// spin budget) — the per-reader backpressure gauge.
	parks *atomic.Uint64

	// dropRef clears one entry's payload handle and returns the block it
	// referenced (E's own method; a type parameter has no fields to reach).
	dropRef func(*E) *netio.Block

	// acquired tracks whether the producer's current fill slot has been
	// claimed (waited free and reset). batch sizes slot storage on first
	// use. Producer-only state.
	acquired bool
	batch    int
}

// newRing builds a ring of `depth` slots (rounded up to a power of two),
// each holding up to batch entries, waking its consumer through gate. Slot
// storage is allocated on a slot's first use — a short trace that never
// wraps the ring only pays for the slots it touches — and recycled in
// place forever after.
func newRing[E any](depth, batch int, gate *consGate, dropRef func(*E) *netio.Block) *ring[E] {
	if depth < 2 {
		depth = 2
	}
	size := 1
	for size < depth {
		size <<= 1
	}
	return &ring[E]{
		slots:    make([]ringSlot[E], size),
		mask:     uint64(size - 1),
		batch:    batch,
		prodWake: make(chan struct{}, 1),
		gate:     gate,
		dropRef:  dropRef,
	}
}

// releaseBlocks returns every block reference the slot's entries hold,
// batching consecutive same-block runs into one atomic add (entries from
// one read block are adjacent, so a full slot usually costs a handful of
// adds, not one per entry). It also clears the handles so recycled slot
// storage never pins a block or a source buffer.
func (r *ring[E]) releaseBlocks(s *ringSlot[E]) {
	var run *netio.Block
	var n int64
	for i := range s.entries {
		b := r.dropRef(&s.entries[i])
		if b != run {
			if run != nil {
				run.Release(n)
			}
			run, n = b, 0
		}
		n++
	}
	if run != nil {
		run.Release(n)
	}
}

// claim resets and acquires the fill slot at head position h. The caller
// has verified the slot is free (consumer released it).
func (r *ring[E]) claim(h uint64) *ringSlot[E] {
	s := &r.slots[h&r.mask]
	if s.entries == nil {
		//dnhunter:alloc-ok one-time lazy slot init; storage is recycled in place forever after
		s.entries = make([]E, 0, r.batch)
	}
	s.entries = s.entries[:0]
	r.acquired = true
	return s
}

// slot returns the producer's current fill slot, blocking until the
// consumer has freed it on wraparound. The slot is reset on first use
// after acquisition.
func (r *ring[E]) slot() *ringSlot[E] {
	h := r.head.Load()
	if !r.acquired {
		size := uint64(len(r.slots))
		for spins := 0; h-r.tail.Load() >= size; {
			if spins < ringProducerSpins {
				spins++
				runtime.Gosched()
				continue
			}
			if r.parks != nil {
				r.parks.Add(1)
			}
			r.prodParked.Store(true)
			if h-r.tail.Load() < size {
				r.prodParked.Store(false)
				break
			}
			<-r.prodWake
			r.prodParked.Store(false)
			spins = 0
		}
		return r.claim(h)
	}
	return &r.slots[h&r.mask]
}

// trySlot is slot without the wraparound wait: ok=false when the ring is
// full and no fill slot is currently acquired. The overload-shedding paths
// use it to drop instead of blocking a live reader when the consumer backs
// up.
func (r *ring[E]) trySlot() (*ringSlot[E], bool) {
	h := r.head.Load()
	if !r.acquired {
		if h-r.tail.Load() >= uint64(len(r.slots)) {
			return nil, false
		}
		return r.claim(h), true
	}
	return &r.slots[h&r.mask], true
}

// depth reports the number of published-but-unreleased slots, 0 to
// len(slots). Safe to call from any goroutine (a metrics gauge): it
// touches only the atomic indices, not the producer-owned fill state.
func (r *ring[E]) depth() int {
	return int(r.head.Load() - r.tail.Load())
}

// publish hands the current fill slot to the consumer. A no-op when the
// slot is empty or unacquired.
func (r *ring[E]) publish() {
	if !r.acquired {
		return
	}
	if len(r.slots[r.head.Load()&r.mask].entries) == 0 {
		return
	}
	r.acquired = false
	r.head.Add(1)
	r.wakeConsumer()
}

// discardFill releases the unpublished fill slot's block references (the
// abort path: entries that will never reach a shard must still return
// their refs so blocks recycle).
func (r *ring[E]) discardFill() {
	if !r.acquired {
		return
	}
	s := &r.slots[r.head.Load()&r.mask]
	r.releaseBlocks(s)
	s.entries = s.entries[:0]
}

// close marks the stream finished (after a final publish) and wakes the
// consumer so it can observe the close. Producer side only.
func (r *ring[E]) close() {
	r.closed.Store(true)
	r.wakeConsumer()
}

func (r *ring[E]) wakeConsumer() {
	if r.gate.parked.Load() {
		select {
		case r.gate.wake <- struct{}{}:
		default:
		}
	}
}

// tryConsume returns the next published slot without blocking; ok=false
// when none is ready. The slot stays valid until release.
func (r *ring[E]) tryConsume() (*ringSlot[E], bool) {
	t := r.tail.Load()
	if r.head.Load() > t {
		return &r.slots[t&r.mask], true
	}
	return nil, false
}

// drained reports a closed ring with no published slot left. The head
// re-load after observing the close matters: the producer's final publish
// happens before close, but a first head load may predate it.
func (r *ring[E]) drained() bool {
	if !r.closed.Load() {
		return false
	}
	return r.head.Load() == r.tail.Load()
}

// ready reports that the consumer should rescan this ring: a published
// slot is waiting, or the ring closed (so the drain check can retire it).
func (r *ring[E]) ready() bool {
	return r.head.Load() > r.tail.Load() || r.closed.Load()
}

// release retires the consumed slot: its entries' block references are
// returned, then the slot goes back to the producer.
func (r *ring[E]) release() {
	r.releaseBlocks(&r.slots[r.tail.Load()&r.mask])
	r.tail.Add(1)
	if r.prodParked.Load() {
		select {
		case r.prodWake <- struct{}{}:
		default:
		}
	}
}

// consume is the single-ring blocking drain (a consumer with one ring, such
// as a striped dispatcher): it returns the next published slot, blocking
// until one is available, and ok=false once the ring is closed and drained.
func (r *ring[E]) consume() (*ringSlot[E], bool) {
	for spins := 0; ; {
		if s, ok := r.tryConsume(); ok {
			return s, true
		}
		if r.drained() {
			return nil, false
		}
		if spins < ringConsumerSpins {
			spins++
			runtime.Gosched()
			continue
		}
		r.gate.parked.Store(true)
		if r.ready() {
			r.gate.parked.Store(false)
			continue
		}
		<-r.gate.wake
		r.gate.parked.Store(false)
		spins = 0
	}
}
