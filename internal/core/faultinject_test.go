package core_test

// The deterministic fault-injection harness the chaos and fault tests
// drive: wrappers for every pipeline seam (packet sources, sinks,
// checkpoint files, trace clocks) whose misbehavior is driven by
// replayable Schedules. The paper's DN-Hunter runs on live vantage-point
// links where truncated captures, stalled exporters, and dying feeds are
// routine; this harness rehearses all of them on demand — and, because
// every schedule is a pure function of its construction parameters and an
// operation index, any observed failure replays exactly from its seed.
//
// A wrapper with no schedules armed is a pure pass-through (one boolean
// test per call, no allocation — pinned by TestSourceUnarmedAllocFree and
// TestSinkUnarmedAllocFree).

import (
	"errors"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/flowdb"
	"repro/internal/netio"
)

// Schedule decides, deterministically, whether a fault fires on a given
// operation. Implementations must be pure functions of their construction
// parameters, the operation index n, and the trace time at — never of
// wall-clock time or shared state — so a fault run replays exactly.
//
// What "operation" means is up to the injection point: the faultSource
// wrapper feeds read-call indices to stream-level schedules (Err, Stall,
// ShortBlock) and packet indices to frame-level ones (EOF, Truncate,
// ClockBack, ClockSkew); see faultSourceConfig. A nil Schedule never fires.
type Schedule interface {
	// Fire reports whether the fault fires for operation n (0-based,
	// monotonically increasing) at trace time at.
	Fire(n uint64, at time.Duration) bool
}

// fire is the nil-tolerant helper every wrapper uses.
func fire(s Schedule, n uint64, at time.Duration) bool {
	return s != nil && s.Fire(n, at)
}

// atSchedule fires exactly once, on operation N.
type atSchedule uint64

func (a atSchedule) Fire(n uint64, _ time.Duration) bool { return n == uint64(a) }

// At returns a schedule that fires on exactly operation n (0-based): the
// n-th packet for frame-level faults, the n-th read call for stream-level
// ones.
func At(n uint64) Schedule { return atSchedule(n) }

// afterSchedule fires on every operation at or past trace time d.
type afterSchedule time.Duration

func (a afterSchedule) Fire(_ uint64, at time.Duration) bool { return at >= time.Duration(a) }

// After returns a schedule that fires on every operation whose trace time
// is at or past d. Combine with a probabilistic wrapper-side effect (e.g.
// a clock-skew burst) to model a failure that sets in mid-trace.
func After(d time.Duration) Schedule { return afterSchedule(d) }

// everyP fires each operation independently with probability p, keyed on
// (seed, n) so the firing pattern is a fixed property of the seed.
type everyP struct {
	threshold uint64
	seed      uint64
}

func (e everyP) Fire(n uint64, _ time.Duration) bool {
	return splitmix64(e.seed^(n*0x9e3779b97f4a7c15)) < e.threshold
}

// EveryP returns a schedule that fires on each operation independently
// with probability p, deterministically keyed on (seed, operation index).
// p <= 0 never fires; p >= 1 always fires. Two schedules with the same
// seed fire identically; vary the seed to decorrelate fault types.
func EveryP(p float64, seed uint64) Schedule {
	switch {
	case p <= 0:
		return everyP{threshold: 0, seed: seed}
	case p >= 1:
		return everyP{threshold: ^uint64(0), seed: seed}
	}
	return everyP{threshold: uint64(p * float64(1<<63) * 2), seed: seed}
}

// splitmix64 is the 64-bit finalizer from Vigna's SplitMix64 generator:
// one invertible mixing pass good enough to decorrelate consecutive
// operation indices into an unbiased threshold test.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// transientErr marks an error as transient: core.DefaultClassify treats a
// source that returned it as restartable rather than dead.
type transientErr struct{ err error }

func (e transientErr) Error() string   { return e.err.Error() }
func (e transientErr) Unwrap() error   { return e.err }
func (e transientErr) Transient() bool { return true }

// Transient wraps err so it reports Transient() == true through any
// errors.As walk — the marker the serve-mode source supervisor's default
// classifier keys restarts on. errors.Is against the wrapped error still
// holds.
func Transient(err error) error { return transientErr{err: err} }

// ErrInjected is the default error a firing faultSourceConfig.Err schedule
// returns. It is transient, so a supervised source recovers from it by
// restarting; set faultSourceConfig.ErrValue to a non-transient error to
// rehearse fatal classification instead.
var ErrInjected = Transient(errors.New("fault: injected read error"))

// ErrSinkInjected is the default error a firing faultSinkConfig.Err
// schedule arms; the wrapped sink's Close returns it.
var ErrSinkInjected = Transient(errors.New("fault: injected sink error"))

// faultSourceConfig arms the fault kinds a faultSource injects. Every
// field pairs a Schedule (nil = never) with the fault's parameters. Two operation
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
type faultSourceConfig struct {
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

// armed reports whether any schedule is set; an unarmed faultSource is a
// pure pass-through.
func (c *faultSourceConfig) armed() bool {
	return c.Err != nil || c.EOF != nil || c.Stall != nil || c.ShortBlock != nil ||
		c.Truncate != nil || c.ClockBack != nil || c.ClockSkew != nil
}

// faultSource wraps a packet source with schedule-driven fault injection.
// It implements netio.PacketSource and netio.BlockRefSource, so it can sit at
// the engine's read seam in any mode (including serve) without changing
// the read path shape. Like the sources it wraps, it is not safe for
// concurrent use.
type faultSource struct {
	src netio.PacketSource
	ref *netio.RefAdapter
	cfg faultSourceConfig
	err error // resolved ErrValue

	off   bool   // nothing armed: delegate with zero bookkeeping
	done  bool   // EOF fault latched
	calls uint64 // read-call index (stream-level schedules)
	pkts  uint64 // packet index (frame-level schedules)
	at    time.Duration
}

// newFaultSource wraps src with the faults cfg arms. With an empty config
// the wrapper is transparent: identical packets, timestamps, block handles,
// and errors, at one boolean test of overhead per call.
func newFaultSource(src netio.PacketSource, cfg faultSourceConfig) *faultSource {
	s := &faultSource{src: src, ref: netio.NewRefAdapter(src, nil, true), cfg: cfg, off: !cfg.armed()}
	s.err = cfg.ErrValue
	if s.err == nil {
		s.err = ErrInjected
	}
	return s
}

// enter runs the stream-level faults for one read call and reports
// whether the call should abort with err (errors.Is-able against
// ErrValue) before touching the wrapped source.
func (s *faultSource) enter() (short bool, err error) {
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
func (s *faultSource) admit(p *netio.Packet) bool {
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
func (s *faultSource) Next() (netio.Packet, error) {
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
func (s *faultSource) ReadBlockRef(dst []netio.Packet) (int, *netio.Block, error) {
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
func (s *faultSource) admitBlock(dst []netio.Packet, n int) int {
	for i := 0; i < n; i++ {
		if !s.admit(&dst[i]) {
			return i
		}
	}
	return n
}

// The engine discovers ReadBlockRef by type assertion; without it the
// wrapper would silently degrade to per-packet Next reads.
var _ netio.BlockRefSource = (*faultSource)(nil)

// faultSinkConfig arms the fault kinds a faultSink injects into the
// consumer side of the pipeline. Schedules see the flow-callback index (the n-th OnFlow
// call) and the flow's trace time.
type faultSinkConfig struct {
	// Block makes the firing OnFlow call sleep BlockFor before delivering
	// — a wedged downstream consumer. Long enough blocks are exactly what
	// ServeConfig.DrainTimeout exists to bound.
	Block    Schedule
	BlockFor time.Duration

	// Err arms a deferred failure: when it fires on a flow callback the
	// wrapper records ErrValue (default ErrSinkInjected) and Close returns
	// it — core.Sink's only error path.
	Err      Schedule
	ErrValue error
}

// faultSink wraps a pipeline sink with schedule-driven fault injection. The
// engine serializes all Sink calls (see core.Sink), so the wrapper keeps
// plain counters.
type faultSink struct {
	inner core.Sink
	cfg   faultSinkConfig
	errV  error
	off   bool
	n     uint64
	armed error // recorded by a firing Err schedule; returned by Close
}

// newFaultSink wraps inner (which may be nil) with the faults cfg arms.
// An unarmed config is a transparent pass-through.
func newFaultSink(inner core.Sink, cfg faultSinkConfig) *faultSink {
	s := &faultSink{inner: inner, cfg: cfg, off: cfg.Block == nil && cfg.Err == nil}
	s.errV = cfg.ErrValue
	if s.errV == nil {
		s.errV = ErrSinkInjected
	}
	return s
}

// OnTag implements core.Sink.
func (s *faultSink) OnTag(e core.TagEvent) {
	if s.inner != nil {
		s.inner.OnTag(e)
	}
}

// OnDNSResponse implements core.Sink.
func (s *faultSink) OnDNSResponse(e core.DNSEvent) {
	if s.inner != nil {
		s.inner.OnDNSResponse(e)
	}
}

// OnFlow implements core.Sink; it is the injection point.
func (s *faultSink) OnFlow(f flowdb.LabeledFlow) {
	if !s.off {
		n := s.n
		s.n++
		if fire(s.cfg.Block, n, f.End) {
			time.Sleep(s.cfg.BlockFor)
		}
		if s.armed == nil && fire(s.cfg.Err, n, f.End) {
			s.armed = s.errV
		}
	}
	if s.inner != nil {
		s.inner.OnFlow(f)
	}
}

// Close implements core.Sink: it closes the wrapped sink and returns the
// armed injected error, if any (the inner sink's own error wins).
func (s *faultSink) Close() error {
	var err error
	if s.inner != nil {
		err = s.inner.Close()
	}
	if err == nil {
		err = s.armed
	}
	return err
}

var _ core.Sink = (*faultSink)(nil)

// Checkpoint-file corruption: the restore path's fault surface is a file
// that was half-written, bit-rotted, or produced by a future release.
// These helpers transform byte images deterministically (seeded where a
// choice exists) so a corrupting chaos run replays exactly.

// FlipBit returns a copy of data with one bit flipped, chosen
// deterministically from seed. Empty input is returned as an empty copy.
func FlipBit(data []byte, seed uint64) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	bit := splitmix64(seed) % uint64(len(out)*8)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// FlipBitAt returns a copy of data with bit `bit` (byte-major,
// LSB-first) flipped — for tests that must corrupt a known region, e.g.
// a checkpoint body rather than its magic.
func FlipBitAt(data []byte, bit int) []byte {
	out := append([]byte(nil), data...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// TruncateTail returns a copy of data with n trailing bytes removed — a
// write that died before its fsync. n past len(data) yields an empty
// slice.
func TruncateTail(data []byte, n int) []byte {
	if n >= len(data) {
		return []byte{}
	}
	return append([]byte(nil), data[:len(data)-n]...)
}

// SetByte returns a copy of data with data[off] replaced by v — e.g.
// forging a checkpoint's version byte to rehearse a downgrade.
func SetByte(data []byte, off int, v byte) []byte {
	out := append([]byte(nil), data...)
	out[off] = v
	return out
}

// CorruptFile rewrites path with transform applied to its current bytes.
// The write is direct (no temp-and-rename): corruption does not deserve
// the atomicity the real checkpoint writer guarantees.
func CorruptFile(path string, transform func([]byte) []byte) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, transform(data), 0o644)
}
