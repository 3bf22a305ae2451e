package netio

// Live-link source adapters for streaming (serve) mode. A real deployment
// points the engine at an AF_PACKET-shaped capture source; these adapters
// make a finite trace behave like one for soaks and smoke tests:
// LoopSource replays a packet slice for as many passes as asked (or
// forever), shifting timestamps so the trace clock keeps advancing, and
// PacedSource throttles any source to its capture timeline so a
// minutes-long trace takes minutes (or any speedup thereof) to serve.
//
// Both return from every read call in bounded time — PacedSource
// sleeps at most one block's worth of trace time — which is what lets the
// engine's drain-on-cancel path (poll between blocks) stay responsive.
// Sources that can block indefinitely (a channel-fed source on an idle
// channel) stall a drain until their next packet.

import (
	"io"
	"time"
)

// LoopSource replays an in-memory packet slice for a fixed number of
// passes, or forever, adding a per-pass timestamp offset so time keeps
// moving monotonically across passes — the run-forever input for soak
// tests. It implements PacketSource and BlockSource. Packet Data slices
// alias the backing slice (zero copy), valid until the caller's next
// read, like every other source.
type LoopSource struct {
	packets []Packet
	period  time.Duration
	passes  int // 0 = forever
	pass    int
	next    int
	offset  time.Duration
}

// NewLoopSource wraps packets (not copied). period is the trace-time
// length of one pass — pass n replays packet timestamps shifted by
// n×period; it must exceed the last packet's timestamp and defaults (when
// <= 0) to the last timestamp plus one millisecond. passes <= 0 loops
// forever.
func NewLoopSource(packets []Packet, period time.Duration, passes int) *LoopSource {
	if period <= 0 {
		if n := len(packets); n > 0 {
			period = packets[n-1].Timestamp + time.Millisecond
		} else {
			period = time.Millisecond
		}
	}
	if passes < 0 {
		passes = 0
	}
	return &LoopSource{packets: packets, period: period, passes: passes}
}

// advance steps to the next pass; ok=false when all passes are done.
func (l *LoopSource) advance() bool {
	l.pass++
	if l.passes > 0 && l.pass >= l.passes {
		return false
	}
	l.next = 0
	l.offset += l.period
	return true
}

// Next implements PacketSource.
func (l *LoopSource) Next() (Packet, error) {
	if len(l.packets) == 0 {
		return Packet{}, io.EOF
	}
	if l.next >= len(l.packets) {
		if !l.advance() {
			return Packet{}, io.EOF
		}
	}
	p := l.packets[l.next]
	l.next++
	p.Timestamp += l.offset
	return p, nil
}

// ReadBlock implements BlockSource. A block never spans a pass boundary,
// so the per-packet offset fixup stays a single addition.
func (l *LoopSource) ReadBlock(dst []Packet) (int, error) {
	if len(l.packets) == 0 {
		return 0, io.EOF
	}
	if l.next >= len(l.packets) {
		if !l.advance() {
			return 0, io.EOF
		}
	}
	n := copy(dst, l.packets[l.next:])
	l.next += n
	for i := 0; i < n; i++ {
		dst[i].Timestamp += l.offset
	}
	return n, nil
}

// PacedSource throttles a source to its own capture timeline: packet
// timestamps are mapped onto the wall clock (scaled by Speedup) and reads
// sleep until the frame's wall time arrives. It paces at block
// granularity — the sleep happens before a block is returned, based on
// its first packet — so throughput stays high while long-run pacing
// tracks the trace clock. It implements PacketSource and BlockRefSource.
type PacedSource struct {
	src     PacketSource
	ref     *RefAdapter
	speedup float64
	start   time.Time     // wall time of the first read
	t0      time.Duration // trace time of the first packet
	started bool
}

// NewPacedSource wraps src. speedup scales trace time onto wall time: 1
// replays in real time, 10 replays ten times faster; values <= 0 mean 1.
func NewPacedSource(src PacketSource, speedup float64) *PacedSource {
	p := &PacedSource{src: src, ref: NewRefAdapter(src, nil, true), speedup: speedup}
	if p.speedup <= 0 {
		p.speedup = 1
	}
	return p
}

// pace sleeps until ts maps to a wall time that has arrived. The first
// packet anchors both clocks, so a trace that starts at T0 does not stall
// T0/speedup before its second packet.
func (p *PacedSource) pace(ts time.Duration) {
	if !p.started {
		p.started = true
		p.start, p.t0 = time.Now(), ts
		return
	}
	due := p.start.Add(time.Duration(float64(ts-p.t0) / p.speedup))
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
}

// Next implements PacketSource.
func (p *PacedSource) Next() (Packet, error) {
	pkt, err := p.src.Next()
	if err != nil {
		return pkt, err
	}
	p.pace(pkt.Timestamp)
	return pkt, nil
}

// ReadBlockRef implements BlockRefSource.
func (p *PacedSource) ReadBlockRef(dst []Packet) (int, *Block, error) {
	n, blk, err := p.ref.ReadBlockRef(dst)
	if n > 0 {
		p.pace(dst[0].Timestamp)
	}
	return n, blk, err
}

// The engine discovers ReadBlockRef by type assertion; without it the
// wrapper would silently degrade to per-packet Next reads.
var _ BlockRefSource = (*PacedSource)(nil)
