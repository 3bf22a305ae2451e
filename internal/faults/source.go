package faults

import (
	"io"
	"time"

	"repro/internal/netio"
)

// SourceConfig arms the fault kinds a Source injects. Every field pairs a
// Schedule (nil = never) with the fault's parameters. Two operation
// counters drive the schedules:
//
//   - stream-level faults (Err, Stall, ShortBlock) see the read-call
//     index: the n-th Next/ReadBlockRef call, whatever the caller's
//     batching;
//   - frame-level faults (EOF, Truncate, ClockBack, ClockSkew) see the
//     packet index: the n-th packet delivered, regardless of how calls
//     blocked them together.
//
// Both counters advance deterministically with the stream, so a (config,
// seed) pair replays the exact same fault sequence.
type SourceConfig struct {
	// Err injects a mid-stream read error: the firing call returns
	// ErrValue (default ErrInjected, which is transient) without consuming
	// input. The stream is NOT poisoned — a retrying caller (e.g. the
	// serve supervisor) resumes where it left off.
	Err      Schedule
	ErrValue error

	// EOF ends the stream early: the firing packet index and everything
	// after it are cut, and the source reports io.EOF from then on. The
	// delivered prefix is byte-identical to the unfaulted stream's first n
	// packets — the "dying feed" fault.
	EOF Schedule

	// Stall sleeps StallFor at the top of the firing read call — an
	// exporter latency spike. Trace timestamps are unaffected.
	Stall    Schedule
	StallFor time.Duration

	// ShortBlock caps the firing block read at one packet, exercising the
	// engine's short-read handling (per-call batching collapses, refcount
	// traffic per block rises). No packets are lost.
	ShortBlock Schedule

	// Truncate cuts the firing packet's payload to TruncateTo bytes — a
	// snaplen-truncated capture frame. Parsers must survive it.
	Truncate   Schedule
	TruncateTo int

	// ClockBack jumps the firing packet's timestamp backward by
	// ClockBackBy (clamped at zero): a capture clock stepping backward.
	ClockBack   Schedule
	ClockBackBy time.Duration

	// ClockSkew jumps the firing packet's timestamp forward by
	// ClockSkewBy: a skew burst. Fired via After(d)+EveryP it models a
	// clock that degrades mid-trace.
	ClockSkew   Schedule
	ClockSkewBy time.Duration
}

// armed reports whether any schedule is set; an unarmed Source is a pure
// pass-through.
func (c *SourceConfig) armed() bool {
	return c.Err != nil || c.EOF != nil || c.Stall != nil || c.ShortBlock != nil ||
		c.Truncate != nil || c.ClockBack != nil || c.ClockSkew != nil
}

// Source wraps a packet source with schedule-driven fault injection. It
// implements netio.PacketSource and netio.BlockRefSource, so it can sit at
// the engine's read seam in any mode (including serve) without changing
// the read path shape. Like the sources it wraps, it is not safe for
// concurrent use.
type Source struct {
	src netio.PacketSource
	ref *netio.RefAdapter
	cfg SourceConfig
	err error // resolved ErrValue

	off   bool   // nothing armed: delegate with zero bookkeeping
	done  bool   // EOF fault latched
	calls uint64 // read-call index (stream-level schedules)
	pkts  uint64 // packet index (frame-level schedules)
	at    time.Duration
}

// NewSource wraps src with the faults cfg arms. With an empty config the
// wrapper is transparent: identical packets, timestamps, block handles,
// and errors, at one boolean test of overhead per call.
func NewSource(src netio.PacketSource, cfg SourceConfig) *Source {
	s := &Source{src: src, ref: netio.NewRefAdapter(src, nil, true), cfg: cfg, off: !cfg.armed()}
	s.err = cfg.ErrValue
	if s.err == nil {
		s.err = ErrInjected
	}
	return s
}

// enter runs the stream-level faults for one read call and reports
// whether the call should abort with err (errors.Is-able against
// ErrValue) before touching the wrapped source.
func (s *Source) enter() (short bool, err error) {
	n := s.calls
	s.calls++
	if fire(s.cfg.Stall, n, s.at) {
		time.Sleep(s.cfg.StallFor)
	}
	if s.done {
		return false, io.EOF
	}
	if fire(s.cfg.Err, n, s.at) {
		return false, s.err
	}
	return fire(s.cfg.ShortBlock, n, s.at), nil
}

// admit applies the frame-level faults to the next delivered packet,
// advancing the packet index. It reports false when the EOF fault fires:
// the packet (and the rest of the stream) must be dropped.
func (s *Source) admit(p *netio.Packet) bool {
	n := s.pkts
	if fire(s.cfg.EOF, n, p.Timestamp) {
		s.done = true
		return false
	}
	s.pkts++
	if fire(s.cfg.Truncate, n, p.Timestamp) && len(p.Data) > s.cfg.TruncateTo {
		p.Data = p.Data[:s.cfg.TruncateTo]
	}
	if fire(s.cfg.ClockBack, n, p.Timestamp) {
		if p.Timestamp > s.cfg.ClockBackBy {
			p.Timestamp -= s.cfg.ClockBackBy
		} else {
			p.Timestamp = 0
		}
	}
	if fire(s.cfg.ClockSkew, n, p.Timestamp) {
		p.Timestamp += s.cfg.ClockSkewBy
	}
	if p.Timestamp > s.at {
		s.at = p.Timestamp
	}
	return true
}

// Next implements netio.PacketSource.
func (s *Source) Next() (netio.Packet, error) {
	if s.off {
		return s.src.Next()
	}
	if _, err := s.enter(); err != nil {
		return netio.Packet{}, err
	}
	pkt, err := s.src.Next()
	if err != nil {
		return pkt, err
	}
	if !s.admit(&pkt) {
		return netio.Packet{}, io.EOF
	}
	return pkt, nil
}

// ReadBlockRef implements netio.BlockRefSource: block handles pass
// through untouched (truncation merely re-slices packet views into the
// block), so the refcount discipline under test is the engine's own.
func (s *Source) ReadBlockRef(dst []netio.Packet) (int, *netio.Block, error) {
	if s.off {
		return s.ref.ReadBlockRef(dst)
	}
	short, err := s.enter()
	if err != nil {
		return 0, nil, err
	}
	if short && len(dst) > 1 {
		dst = dst[:1]
	}
	n, blk, err := s.ref.ReadBlockRef(dst)
	n = s.admitBlock(dst, n)
	if n == 0 && blk != nil {
		// Every delivered packet was cut by the EOF fault; the caller
		// never sees the block, so the read's reference dies here.
		blk.Release(1)
		blk = nil
	}
	if s.done && n == 0 {
		return 0, nil, io.EOF
	}
	return n, blk, err
}

// admitBlock runs admit over a just-read block, cutting it short when the
// EOF fault fires mid-block.
func (s *Source) admitBlock(dst []netio.Packet, n int) int {
	for i := 0; i < n; i++ {
		if !s.admit(&dst[i]) {
			return i
		}
	}
	return n
}

// The engine discovers ReadBlockRef by type assertion; without it the
// wrapper would silently degrade to per-packet Next reads.
var _ netio.BlockRefSource = (*Source)(nil)
