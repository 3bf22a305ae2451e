package core

// Serve-mode source supervision: a live capture feed fails in two very
// different ways. Transient failures — an exporter hiccup, a short read,
// a capture ring overrun — deserve a backoff and another try; fatal ones
// (a closed file, a parse-impossible stream) deserve a clean shutdown.
// The supervisor sits between the drain wrapper and the real source,
// classifies every read error, and restarts the source (optionally
// reopening it) under an exponential-backoff-with-deterministic-jitter
// policy bounded by an error budget. Everything it does is observable:
// classified error counters, restart counts, and the remaining budget all
// surface through ServeMetrics onto /metrics, and any restart marks the
// server degraded on /healthz.

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/netio"
)

// RestartPolicy configures serve-mode source supervision
// (ServeConfig.Restart). The zero value of each field selects a sensible
// default; the zero policy as a whole restarts up to 8 times with
// 50ms–5s backoff.
type RestartPolicy struct {
	// Classify reports whether err is transient (restart) rather than
	// fatal (fail the run). nil means DefaultClassify.
	Classify func(error) bool
	// MaxRestarts is the error budget: transient failures beyond it
	// become fatal. Zero or negative means 8.
	MaxRestarts int
	// BaseBackoff is the first retry's nominal delay, doubling per
	// consecutive restart up to MaxBackoff. Defaults: 50ms and 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the deterministic backoff jitter (each delay lands in
	// [d/2, d) of the nominal doubling). Zero means 1. Restart timing —
	// like every fault path — replays exactly from its seed.
	Seed uint64
	// Reopen, when set, replaces the source after each transient failure
	// (e.g. reconnect to an exporter). Its error is fatal. When nil the
	// existing source is simply read again.
	Reopen func() (netio.PacketSource, error)
}

// withDefaults resolves the zero-value fields.
func (p RestartPolicy) withDefaults() RestartPolicy {
	if p.Classify == nil {
		p.Classify = DefaultClassify
	}
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 8
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// DefaultClassify is the default transient-vs-fatal split: an error
// advertising Transient() bool (the convention the fault-injection
// harness's Transient marks, in this package's tests) answers for itself; io.ErrUnexpectedEOF — a feed dying
// mid-record — is transient; everything else is fatal. io.EOF never gets
// here (end of stream is not a failure).
func DefaultClassify(err error) bool {
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return errors.Is(err, io.ErrUnexpectedEOF)
}

// supervisedSource wraps a packet source with the restart policy. It is
// read from the single engine reader goroutine (like any source), so its
// bookkeeping needs no locking; only the metrics it publishes are shared.
type supervisedSource struct {
	src netio.BlockRefSource
	// adapt is the engine's edge adapter, applied to each source Reopen
	// hands back.
	adapt func(netio.PacketSource) netio.BlockRefSource
	pol   RestartPolicy
	m     *ServeMetrics
	// stop is the drain signal shared with the drainSource above it:
	// during a drain the supervisor gives up immediately (reporting EOF)
	// instead of sleeping out a backoff.
	stop *atomic.Bool
	rng  uint64
	// pending defers recovery of an error that arrived alongside a
	// partial block: the packets are delivered first, the restart happens
	// at the next read call, and no input is lost.
	pending  error
	restarts int
}

func newSupervisedSource(src netio.BlockRefSource, adapt func(netio.PacketSource) netio.BlockRefSource, pol RestartPolicy, m *ServeMetrics) *supervisedSource {
	pol = pol.withDefaults()
	return &supervisedSource{src: src, adapt: adapt, pol: pol, m: m, rng: pol.Seed}
}

func (s *supervisedSource) draining() bool { return s.stop != nil && s.stop.Load() }

// recover handles one non-EOF read error: classify, count, back off,
// optionally reopen. It returns nil when the caller should retry the
// read, io.EOF when a drain interrupted recovery, and a terminal error
// otherwise.
func (s *supervisedSource) recover(err error) error {
	if s.draining() {
		return io.EOF
	}
	if !s.pol.Classify(err) {
		s.m.faultFatal.Add(1)
		return fmt.Errorf("core: source failed (fatal): %w", err)
	}
	if s.restarts >= s.pol.MaxRestarts {
		s.m.faultFatal.Add(1)
		return fmt.Errorf("core: source error budget exhausted after %d restarts: %w", s.restarts, err)
	}
	s.restarts++
	s.m.faultTransient.Add(1)
	s.m.restarts.Add(1)
	s.m.degraded.Store(true)
	s.sleep(s.backoff(s.restarts))
	if s.draining() {
		return io.EOF
	}
	if s.pol.Reopen != nil {
		nsrc, oerr := s.pol.Reopen()
		if oerr != nil {
			s.m.faultFatal.Add(1)
			return fmt.Errorf("core: reopening source after restart %d: %w", s.restarts, oerr)
		}
		s.src = s.adapt(nsrc)
	}
	return nil
}

// backoff computes the nth restart's delay: BaseBackoff doubling per
// attempt, capped at MaxBackoff, jittered into [d/2, d) by a
// deterministic seeded generator (decorrelated restarts without
// irreproducible timing).
func (s *supervisedSource) backoff(attempt int) time.Duration {
	d := s.pol.MaxBackoff
	if shift := attempt - 1; shift < 30 {
		if b := s.pol.BaseBackoff << shift; b < d {
			d = b
		}
	}
	s.rng = mix64(s.rng + 0x9e3779b97f4a7c15)
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(s.rng%uint64(half))
}

// sleep waits d, polling the drain signal so a stop never waits out a
// long backoff.
func (s *supervisedSource) sleep(d time.Duration) {
	const slice = 5 * time.Millisecond
	for d > 0 {
		if s.draining() {
			return
		}
		step := d
		if step > slice {
			step = slice
		}
		time.Sleep(step)
		d -= step
	}
}

// takePending runs deferred recovery from a previous partial delivery.
func (s *supervisedSource) takePending() error {
	if s.pending == nil {
		return nil
	}
	err := s.pending
	s.pending = nil
	return s.recover(err)
}

// ReadBlockRef implements netio.BlockRefSource.
func (s *supervisedSource) ReadBlockRef(dst []netio.Packet) (int, *netio.Block, error) {
	for {
		if err := s.takePending(); err != nil {
			return 0, nil, err
		}
		n, blk, err := s.src.ReadBlockRef(dst)
		if err == nil || errors.Is(err, io.EOF) {
			return n, blk, err
		}
		if n > 0 {
			// Deliver the partial block now; recover on the next call.
			s.pending = err
			return n, blk, nil
		}
		if blk != nil {
			// Defensive: an errored empty read must not leak its handle.
			blk.Release(1)
		}
		if rerr := s.recover(err); rerr != nil {
			return 0, nil, rerr
		}
	}
}
