package core

// Serve mode's source wrapper: it counts what the engine reads for the
// metrics, turns the drain signal into end of stream, and — with a
// RestartPolicy — supervises the source. A live capture feed fails in two
// very different ways. Transient failures — an exporter hiccup, a short
// read, a capture ring overrun — deserve a backoff and another try; fatal
// ones (a closed file, a parse-impossible stream) deserve a clean
// shutdown. The supervisor classifies every read error and re-reads the
// source under an exponential-backoff-with-deterministic-jitter policy
// bounded by an error budget. Everything it does is observable: classified
// error counters, restart counts, and the remaining budget all surface
// through ServeMetrics onto /metrics, and any restart marks the server
// degraded on /healthz.

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
}

// withDefaults resolves the zero-value fields.
func (p RestartPolicy) withDefaults() RestartPolicy {
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

// DefaultClassify is the supervisor's transient-vs-fatal split: an error
// advertising Transient() bool (the convention the fault-injection
// harness's Transient marks, in this package's tests) answers for itself;
// io.ErrUnexpectedEOF — a feed dying mid-record — is transient; everything
// else is fatal. io.EOF never gets
// here (end of stream is not a failure).
func DefaultClassify(err error) bool {
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return errors.Is(err, io.ErrUnexpectedEOF)
}

// serveSource wraps the engine-facing source of one Serve. It counts
// packets, bytes, and the trace clock for the metrics, and turns the drain
// signal (stop) into io.EOF so the engine takes its normal end-of-capture
// path. With a policy it also supervises the source: read errors are
// classified, and transient ones are answered by a backoff and another
// read. It is read from the single engine reader goroutine (like any
// source), so its bookkeeping needs no locking; only stop and the metrics
// it publishes are shared.
type serveSource struct {
	src  netio.BlockRefSource
	m    *ServeMetrics
	stop atomic.Bool
	// pol is the restart policy, defaults resolved; nil propagates the
	// first read error, as a batch Run would.
	pol *RestartPolicy
	rng uint64
	// pending defers recovery of an error that arrived alongside a
	// partial block: the packets are delivered first, the restart happens
	// at the next read call, and no input is lost.
	pending  error
	restarts int
}

func newServeSource(src netio.BlockRefSource, pol *RestartPolicy, m *ServeMetrics) *serveSource {
	s := &serveSource{src: src, m: m}
	if pol != nil {
		p := pol.withDefaults()
		s.pol, s.rng = &p, p.Seed
		m.restartBudget.Store(int64(p.MaxRestarts))
	}
	return s
}

// ReadBlockRef implements netio.BlockRefSource.
func (s *serveSource) ReadBlockRef(dst []netio.Packet) (int, *netio.Block, error) {
	for {
		if s.stop.Load() {
			return 0, nil, io.EOF
		}
		if err := s.pending; err != nil {
			s.pending = nil
			if rerr := s.recover(err); rerr != nil {
				return 0, nil, rerr
			}
		}
		n, blk, err := s.src.ReadBlockRef(dst)
		if n > 0 {
			var b uint64
			for i := 0; i < n; i++ {
				b += uint64(len(dst[i].Data))
			}
			s.m.packets.Add(uint64(n))
			s.m.bytes.Add(b)
			s.m.clockNs.Store(int64(dst[n-1].Timestamp))
		}
		if err == nil || s.pol == nil || errors.Is(err, io.EOF) {
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

// recover handles one non-EOF read error: classify, count, back off. It
// returns nil when the caller should retry the read, io.EOF when a drain
// interrupted recovery, and a terminal error otherwise.
func (s *serveSource) recover(err error) error {
	if s.stop.Load() {
		return io.EOF
	}
	if !DefaultClassify(err) {
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
	if s.stop.Load() {
		return io.EOF
	}
	return nil
}

// backoff computes the nth restart's delay: BaseBackoff doubling per
// attempt, capped at MaxBackoff, jittered into [d/2, d) by a
// deterministic seeded generator (decorrelated restarts without
// irreproducible timing).
func (s *serveSource) backoff(attempt int) time.Duration {
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
func (s *serveSource) sleep(d time.Duration) {
	const slice = 5 * time.Millisecond
	for d > 0 && !s.stop.Load() {
		step := min(d, slice)
		time.Sleep(step)
		d -= step
	}
}
