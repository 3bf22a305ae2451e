package core

// The bounded lock-free SPSC ring behind the sharded engine's one hand-off:
// the dispatcher owns one ring of pre-parsed shardEntry per shard. Entries
// carry payloads by handle into refcounted netio.Block arenas (or stable
// source storage), so a payload moves from the packet source to the shard
// by reference, never by copy. Entry storage is one flat array allocated
// with the ring and reused in place forever after.
//
// Publication is entry-granular and decoupled from capacity: the producer
// appends entries privately (put) and makes them visible with one store of
// the head cursor (publish) at the end of every read block — and before it
// ever waits on a full ring — while the consumer takes whatever is
// published, at most batch entries per pass. So a tag waits for the read in
// progress and the shard's queue, never for later traffic, and batches size
// themselves: a hundred-odd entries per publish when reads are full, a
// handful when the link is quiet.
//
// The synchronization is the classic single-producer/single-consumer ring:
// a head index advanced only by the producer and a tail index advanced
// only by the consumer, each on its own cache line so the two sides never
// false-share. Either side spins briefly when it cannot proceed (yielding
// to the scheduler, which on a saturated machine is the fast path) and then
// parks on a buffered wake channel, with the usual set-flag/recheck/sleep
// protocol so a wake is never lost.

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
)

// Entry kinds carried by the dispatcher→shard rings.
const (
	entryFlow   uint8 = iota // pre-routed flow packet
	entryDNS                 // UDP/53 payload
	entryExpire              // idle-expiry command for one flow (key)
)

// shardEntry is one pre-parsed unit of shard work. The dispatcher has
// already parsed the frame, extracted and oriented the flow key, and
// decided the direction, so the shard touches only its own flow table and
// resolver — no re-parse, no re-orient. Entries live in ring storage that
// is reused on release, so a *shardEntry must never outlive the batch it
// was delivered in. The payload handle (pay/blk) is slab-adjacent: pay
// aliases blk's refcounted arena (or stable source storage when blk is
// nil), the dispatcher takes one block reference per appended entry, and
// the ring returns them as the consumer's tail advances — so the bytes
// behind pay are valid for exactly as long as the entry itself.
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
	// reference, returned when the consumer releases it.
	blk   *netio.Block
	kind  uint8
	c2s   bool // entryFlow: packet direction under key's orientation
	tcp   bool // entryFlow: transport is TCP
	flags layers.TCPFlags
}

// Spin budgets before parking. Each spin is a runtime.Gosched, which on a
// busy box hands the quantum straight to the peer goroutine — usually all
// that is needed. Parking beyond that keeps an idle ring from burning a
// core (a shard waiting on a quiet link, a consumer waiting at EOF).
const (
	ringProducerSpins = 64
	ringConsumerSpins = 64
)

// cacheLinePad separates the producer- and consumer-owned indices so the
// two sides never invalidate each other's cache line.
type cacheLinePad [64]byte

// ring is the bounded single-producer/single-consumer ring of shard
// entries. Exactly one goroutine may call producer methods (put, publish,
// close) and exactly one may call consumer methods (consume, release).
type ring struct {
	buf   []shardEntry // len is limit rounded up to a power of two
	mask  uint64       // len(buf) − 1
	limit uint64       // capacity: at most this many unreleased entries
	batch uint64       // most entries one tryConsume hands out; the unit of depth()

	// The producer's line. Entries in [head, fill) are written but not yet
	// visible to the consumer; tailSeen is the producer's last reading of
	// tail, so put touches the consumer's line only when the ring looks full.
	_        cacheLinePad
	head     atomic.Uint64 // entries published; advanced only by the producer
	fill     uint64
	tailSeen uint64
	_        cacheLinePad
	tail     atomic.Uint64 // entries released; advanced only by the consumer
	_        cacheLinePad

	// parks counts producer park events (ring full past the spin budget) —
	// the dispatcher's backpressure counter. Written only when the producer
	// is about to sleep anyway, so it shares the line with the park flags.
	parks      atomic.Uint64
	closed     atomic.Bool
	prodParked atomic.Bool
	prodWake   chan struct{}
	consParked atomic.Bool
	consWake   chan struct{}
}

// newRing builds a ring holding up to depth×batch entries (both positive).
func newRing(depth, batch int) *ring {
	limit := depth * batch
	size := 1
	for size < limit {
		size <<= 1
	}
	return &ring{
		buf:      make([]shardEntry, size),
		mask:     uint64(size - 1),
		limit:    uint64(limit),
		batch:    uint64(batch),
		prodWake: make(chan struct{}, 1),
		consWake: make(chan struct{}, 1),
	}
}

// full reports whether the ring has no room for another entry, refreshing
// the producer's view of tail only when the cached one says so.
func (r *ring) full() bool {
	if r.fill-r.tailSeen < r.limit {
		return false
	}
	r.tailSeen = r.tail.Load()
	return r.fill-r.tailSeen >= r.limit
}

// put appends e to the producer's unpublished run; the consumer sees it at
// the next publish. On a full ring the run is published first (the consumer
// can only free what it can see) and then put either blocks until the
// consumer releases space (wait: the back-pressure that bounds producer
// run-ahead) or reports false without queuing e (the overload-shedding
// paths drop instead of stalling a live reader).
func (r *ring) put(e shardEntry, wait bool) bool {
	if r.full() {
		r.publish()
		if !wait {
			return false
		}
		for spins := 0; r.full(); {
			if spins < ringProducerSpins {
				spins++
				runtime.Gosched()
				continue
			}
			r.parks.Add(1)
			r.prodParked.Store(true)
			if !r.full() {
				r.prodParked.Store(false)
				break
			}
			<-r.prodWake
			r.prodParked.Store(false)
			spins = 0
		}
	}
	r.buf[r.fill&r.mask] = e
	r.fill++
	return true
}

// publish makes every entry put so far visible to the consumer and wakes
// it. A no-op when nothing is unpublished.
func (r *ring) publish() {
	if r.head.Load() == r.fill {
		return
	}
	r.head.Store(r.fill)
	r.wakeConsumer()
}

// depth reports the published-but-unreleased backlog in batches, rounded
// up: 0 to the depth the ring was built with. Safe to call from any
// goroutine (a metrics gauge): it touches only the atomic indices. tail is
// read first so a racing consumer can only make the figure stale-high.
func (r *ring) depth() int {
	t := r.tail.Load()
	n := min(r.head.Load()-t, r.limit)
	return int((n + r.batch - 1) / r.batch)
}

// close publishes what is left and marks the stream finished, waking the
// consumer so it can observe the close. Producer side only. It is also the
// abort path: consumers keep releasing under abort, which returns the block
// references of entries that will never be processed.
func (r *ring) close() {
	r.publish()
	r.closed.Store(true)
	r.wakeConsumer()
}

func (r *ring) wakeConsumer() {
	if r.consParked.Load() {
		select {
		case r.consWake <- struct{}{}:
		default:
		}
	}
}

// tryConsume returns the next run of published entries without blocking —
// at most batch of them, and never across the storage wrap — empty when
// none is published. The run stays valid until it is handed to release.
func (r *ring) tryConsume() []shardEntry {
	t := r.tail.Load()
	lo := t & r.mask
	n := min(r.head.Load()-t, r.batch, uint64(len(r.buf))-lo)
	return r.buf[lo : lo+n]
}

// drained reports a closed ring with no published entry left. The head
// re-load after observing the close matters: the producer's final publish
// happens before close, but a first head load may predate it.
func (r *ring) drained() bool {
	if !r.closed.Load() {
		return false
	}
	return r.head.Load() == r.tail.Load()
}

// ready reports that the consumer has something to observe: published
// entries, or the close.
func (r *ring) ready() bool {
	return r.head.Load() != r.tail.Load() || r.closed.Load()
}

// release retires a run returned by tryConsume or consume: its entries'
// block references are returned — consecutive same-block entries batched
// into one atomic add (entries from one read block are adjacent) — and
// their handles cleared, so reused storage never pins a block or a source
// buffer; then the space goes back to the producer.
func (r *ring) release(s []shardEntry) {
	var run *netio.Block
	var n int64
	for i := range s {
		b := s[i].blk
		s[i].blk, s[i].pay = nil, nil
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
	r.tail.Add(uint64(len(s)))
	if r.prodParked.Load() {
		select {
		case r.prodWake <- struct{}{}:
		default:
		}
	}
}

// consume is the consumer's blocking drain: it returns the next published
// run, blocking until one is available, and nil once the ring is closed and
// drained.
func (r *ring) consume() []shardEntry {
	for spins := 0; ; {
		if s := r.tryConsume(); len(s) > 0 {
			return s
		}
		if r.drained() {
			return nil
		}
		if spins < ringConsumerSpins {
			spins++
			runtime.Gosched()
			continue
		}
		r.consParked.Store(true)
		if r.ready() {
			r.consParked.Store(false)
			continue
		}
		<-r.consWake
		r.consParked.Store(false)
		spins = 0
	}
}
