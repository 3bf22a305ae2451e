package netio

// Refcounted block arenas: the storage contract behind ReadBlockRef. A
// borrowed buffer ("Data valid until the next call", the Next and ReadBlock
// contract) forces every pipeline stage that outlives one read to copy the
// payload. A Block instead carries an explicit reference count: the reader
// fills a pooled block once, every ring entry that aliases it takes a
// reference, and the block returns to its pool when the last reference
// retires. Payload bytes then move through the whole dispatch fanout by
// handle, never by copy.
//
// The pool is a plain mutex freelist, deliberately not a sync.Pool: GC
// cycles would clear a sync.Pool and force 256 KiB block reallocations at
// packet rate, re-inflating the dispatch bytes/pkt this design exists to
// eliminate. A bounded freelist keeps steady state allocation-free and lets
// the retire-latency counters live next to the storage they describe.
//
// A paced source yields a packet or two per read, and each read's copy
// pins its block until the shard is done with it. Such short reads take a
// small block from a second bounded freelist, so a burst that outruns the
// full-size freelist allocates pages, not quarter-megabytes.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// defaultBlockBytes is the pooled block capacity: large enough to hold a
// full reader block of typical frames (256 packets × ~500 B), small enough
// that a handful of in-flight blocks per reader stays modest.
const defaultBlockBytes = 256 * 1024

// defaultPoolBlocks bounds the freelist; blocks beyond it are left to the
// garbage collector (a transient burst should not pin memory forever).
const defaultPoolBlocks = 64

// smallBlockBytes is the small block class: one page, enough for a read of
// one or two full-size Ethernet frames.
const smallBlockBytes = 4096

// smallPoolBlocks bounds the small freelist: at most 2 MiB pinned.
const smallPoolBlocks = 512

// Block is one refcounted frame arena. The producer that obtained it from
// Get owns one reference and fills buf; every consumer that retains a slice
// of the block past the producer's next read must take its own reference
// (Retain) and drop it when done (Release). When the count reaches zero the
// block returns to its pool and its bytes may be overwritten.
type Block struct {
	buf  []byte
	used int // producer-only fill cursor
	pool *BlockPool
	born time.Time // Get time, for retire-latency accounting
	refs atomic.Int64
}

// Retain adds n references to the block.
func (b *Block) Retain(n int64) { b.refs.Add(n) }

// Release drops n references; the final release recycles the block into its
// pool and records the Get→retire latency.
func (b *Block) Release(n int64) {
	if b.refs.Add(-n) == 0 {
		b.pool.put(b)
	}
}

// append copies frame into the block, returning the aliasing slice.
// ok=false when the frame does not fit the remaining capacity.
func (b *Block) append(frame []byte) ([]byte, bool) {
	if b.used+len(frame) > cap(b.buf) {
		return nil, false
	}
	dst := b.buf[b.used : b.used+len(frame)]
	copy(dst, frame)
	b.used += len(frame)
	return dst, true
}

// BlockPool recycles Blocks through a bounded mutex freelist and accounts
// their lifecycle (see BlockPoolStats). The zero value is not usable; use
// NewBlockPool or the package-level DefaultBlockPool.
type BlockPool struct {
	size    int
	maxFree int

	mu        sync.Mutex
	free      []*Block
	smallFree []*Block // smallBlockBytes blocks, used only when size is larger

	gets     atomic.Uint64
	allocs   atomic.Uint64
	retired  atomic.Uint64
	retireNs atomic.Uint64
}

// NewBlockPool builds a pool of blockBytes-capacity blocks keeping at most
// maxFree on the freelist; non-positive arguments select the defaults.
func NewBlockPool(blockBytes, maxFree int) *BlockPool {
	if blockBytes <= 0 {
		blockBytes = defaultBlockBytes
	}
	if maxFree <= 0 {
		maxFree = defaultPoolBlocks
	}
	return &BlockPool{size: blockBytes, maxFree: maxFree}
}

// defaultPool backs every reader that does not bring its own pool. Blocks
// are content-free storage, so sharing it across engines is safe; the
// counters are process-wide (bench reads them as before/after deltas).
var defaultPool = NewBlockPool(0, 0)

// DefaultBlockPool returns the shared process-wide pool.
func DefaultBlockPool() *BlockPool { return defaultPool }

// Get returns a block with one reference held by the caller and capacity
// for at least minBytes (a pooled block normally; a one-off, never-pooled
// allocation when minBytes exceeds the pool's block size).
func (p *BlockPool) Get(minBytes int) *Block {
	p.gets.Add(1)
	if minBytes > p.size {
		// Oversized one-off: recycled by GC, not the freelist (put drops it).
		p.allocs.Add(1)
		b := &Block{buf: make([]byte, minBytes), pool: p, born: time.Now()}
		b.refs.Store(1)
		return b
	}
	return p.take(&p.free, p.size)
}

// getFit returns a block for a read of exactly total bytes: a small block
// when total fits one and the pool's blocks are larger, else as Get.
func (p *BlockPool) getFit(total int) *Block {
	if total > smallBlockBytes || p.size <= smallBlockBytes {
		return p.Get(total)
	}
	p.gets.Add(1)
	return p.take(&p.smallFree, smallBlockBytes)
}

// take pops a block of the given size class from free, or allocates one,
// and hands it out holding one reference.
func (p *BlockPool) take(free *[]*Block, size int) *Block {
	p.mu.Lock()
	var b *Block
	if n := len(*free); n > 0 {
		b = (*free)[n-1]
		(*free)[n-1] = nil
		*free = (*free)[:n-1]
	}
	p.mu.Unlock()
	if b == nil {
		p.allocs.Add(1)
		b = &Block{buf: make([]byte, size), pool: p}
	}
	b.used = 0
	b.born = time.Now()
	b.refs.Store(1)
	return b
}

// put recycles a fully released block into its class's freelist, recording
// its retire latency.
func (p *BlockPool) put(b *Block) {
	p.retired.Add(1)
	p.retireNs.Add(uint64(time.Since(b.born)))
	free, maxFree := &p.free, p.maxFree
	switch c := cap(b.buf); {
	case c == p.size:
	case c == smallBlockBytes && p.size > smallBlockBytes:
		free, maxFree = &p.smallFree, smallPoolBlocks
	default:
		return // oversized one-off
	}
	p.mu.Lock()
	if len(*free) < maxFree {
		*free = append(*free, b)
	}
	p.mu.Unlock()
}

// BlockPoolStats is a point-in-time copy of a pool's lifecycle counters.
type BlockPoolStats struct {
	// Gets counts blocks handed out; Allocs the subset that had to be newly
	// allocated (freelist miss or oversized frame).
	Gets, Allocs uint64
	// Retired counts blocks whose last reference was released; RetireNs sums
	// their Get→retire latencies (RetireNs/Retired is the mean time payload
	// handles keep a block pinned).
	Retired, RetireNs uint64
}

// Stats returns the pool's counters. Safe concurrently with Get/Release.
func (p *BlockPool) Stats() BlockPoolStats {
	return BlockPoolStats{
		Gets:     p.gets.Load(),
		Allocs:   p.allocs.Load(),
		Retired:  p.retired.Load(),
		RetireNs: p.retireNs.Load(),
	}
}

// BlockRefSource is the engine-facing read contract, the only one spoken
// past the edge of the pipeline: one call frames up to len(dst) packets
// whose Data all alias the returned Block (or, when blk is nil, storage the
// producer vouches for — see NewRefAdapter). The caller receives blk holding
// one reference and must Release it exactly once when done distributing; any
// consumer that keeps a Data slice beyond that must Retain its own reference
// first. dst[:n] is valid alongside a non-nil err (io.EOF after the final
// partial block).
//
// Writing a packet source: implement Next. Optionally add ReadBlock (bulk
// reads) or ReadBlockRef — for a source that frames straight into pooled
// blocks, or one whose frames stay valid for its lifetime and so come with
// a nil block (an in-memory replay). A wrapper
// around another source implements Next and ReadBlockRef over a RefAdapter
// of its inner source, never the optional methods: the adapter is the only
// code that knows them.
type BlockRefSource interface {
	ReadBlockRef(dst []Packet) (n int, blk *Block, err error)
}

// RefAdapter turns any PacketSource into a BlockRefSource, picking the
// cheapest read strategy once at construction. It is applied exactly once
// per source, at the edge where a PacketSource enters the pipeline.
type RefAdapter struct {
	ref  BlockRefSource // delegate; nil when the adapter reads through bs/src
	bs   BlockSource    // bulk reads; nil falls back to one src.Next per call
	src  PacketSource
	copy bool // frames must be copied into a pooled block to outlive the read
	// touched folds the bytes touch loads, so the loads have a use and
	// stay in the compiled loop. Per adapter: a package variable would be
	// a data race between concurrent engines. It sits in copy's padding,
	// so the adapter stays one 64-byte allocation.
	touched byte
	pool    *BlockPool
}

// NewRefAdapter wraps src; a nil pool selects DefaultBlockPool. retain says
// whether the consumer keeps payloads past its next read (the sharded
// engine's rings do; the single-shard pipeline does not).
//
// With retain, a BlockRefSource is delegated to, and anything else has each
// frame copied once into a pooled block, since its reuse contract forbids
// keeping its buffers. Without retain nothing is ever copied and the pool is
// never touched: frames are borrowed until the next read (nil blocks), and
// plain block reads are preferred over ReadBlockRef so that a source offering
// both (the pcap Reader) fills its own arena rather than a pooled block.
func NewRefAdapter(src PacketSource, pool *BlockPool, retain bool) *RefAdapter {
	if pool == nil {
		pool = defaultPool
	}
	a := &RefAdapter{src: src, pool: pool}
	a.bs, _ = src.(BlockSource)
	if rs, ok := src.(BlockRefSource); ok && (retain || a.bs == nil) {
		a.ref = rs
		return a
	}
	a.copy = retain
	return a
}

// ReadBlockRef fills dst per the BlockRefSource contract.
func (a *RefAdapter) ReadBlockRef(dst []Packet) (int, *Block, error) {
	if a.ref != nil {
		return a.ref.ReadBlockRef(dst)
	}
	n, err := a.fetch(dst)
	a.touch(dst[:n])
	if n == 0 || !a.copy {
		return n, nil, err
	}
	// Copy every frame once into a single pooled block: total length is
	// known up front, so one block always fits — small for a short read,
	// full-size or oversized otherwise — and the contract's
	// one-block-per-call shape holds.
	total := 0
	for i := 0; i < n; i++ {
		total += len(dst[i].Data)
	}
	blk := a.pool.getFit(total)
	for i := 0; i < n; i++ {
		if d, ok := blk.append(dst[i].Data); ok {
			dst[i].Data = d
		}
	}
	return n, blk, err
}

// touch loads byte 0 of every frame in the block, and byte 64 of a frame
// longer than that, before any frame is parsed or copied. Frames read from
// memory are often cold and scattered (a synthetic trace stores them in
// generation order, not read order), so the hardware prefetcher cannot
// predict them and each parse would stall on its frame's first line in
// turn. The loads here are independent of one another, so the CPU keeps
// many of those misses in flight at once; by the time the parse reaches a
// frame, its header lines are in cache. Frames already stored in read
// order (a pcap Reader's arena) cost two cache hits each.
func (a *RefAdapter) touch(pkts []Packet) {
	var x byte
	for i := range pkts {
		d := pkts[i].Data
		if len(d) > 64 {
			x ^= d[0] ^ d[64]
		} else if len(d) > 0 {
			x ^= d[0]
		}
	}
	a.touched ^= x
}

// fetch is the plain read: one block when the source has bulk reads, else
// one Next (its buffer-reuse contract forbids batching — the second packet
// would invalidate the first).
func (a *RefAdapter) fetch(dst []Packet) (int, error) {
	if a.bs != nil {
		return a.bs.ReadBlock(dst)
	}
	pkt, err := a.src.Next()
	if err != nil {
		return 0, err
	}
	dst[0] = pkt
	return 1, nil
}

// ReadBlockRef implements BlockRefSource for the pcap Reader: records are
// framed straight into a pooled block, so downstream handles alias pcap
// bytes that were copied exactly once (stream buffer → block). A record
// that would not fit the current block ends the call early (its header is
// only peeked, never consumed); a single record larger than a whole pooled
// block gets a dedicated one-off block to itself.
func (r *Reader) ReadBlockRef(dst []Packet) (int, *Block, error) {
	if len(dst) == 0 {
		return 0, nil, nil
	}
	blk := defaultPool.Get(0)
	n := 0
	for n < len(dst) {
		if n > 0 {
			// Peek the next record length before committing to the header
			// read: a record that will not fit must wait for the next call's
			// fresh block. Peek errors fall through to readRecordHeader for
			// uniform error reporting.
			if hdr, err := r.r.Peek(16); err == nil {
				if incl := r.order.Uint32(hdr[8:12]); blk.used+int(incl) > cap(blk.buf) {
					return n, blk, nil
				}
			}
		}
		ts, incl, err := r.readRecordHeader()
		if err != nil {
			if n == 0 {
				blk.Release(1)
				return 0, nil, err
			}
			return n, blk, err
		}
		if blk.used+int(incl) > cap(blk.buf) {
			// Only reachable at n==0 (the peek bounds later records): one
			// oversized record gets a dedicated, never-pooled block.
			blk.Release(1)
			blk = defaultPool.Get(int(incl))
		}
		body := blk.buf[blk.used : blk.used+int(incl)]
		if _, err := io.ReadFull(r.r, body); err != nil {
			err = fmt.Errorf("netio: reading record body: %w", err)
			if n == 0 {
				blk.Release(1)
				return 0, nil, err
			}
			return n, blk, err
		}
		blk.used += int(incl)
		dst[n] = Packet{Timestamp: ts, Data: body}
		n++
	}
	return n, blk, nil
}
