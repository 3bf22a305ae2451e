// Package faults is the deterministic fault-injection layer: wrappers for
// every pipeline seam (packet sources, sinks, checkpoint files, trace
// clocks) whose misbehavior is driven by replayable Schedules. The paper's
// DN-Hunter runs on live vantage-point links where truncated captures,
// stalled exporters, and dying feeds are routine; this package lets the
// test suite rehearse all of them on demand — and, because every schedule
// is a pure function of its construction parameters and an operation
// index, any observed failure replays exactly from its seed.
//
// Nothing here runs in production builds by default: a wrapper with no
// schedules armed is a pure pass-through (one boolean test per call, no
// allocation — pinned by TestSourceUnarmedAllocFree and
// TestSinkUnarmedAllocFree).
package faults

import "time"

// Schedule decides, deterministically, whether a fault fires on a given
// operation. Implementations must be pure functions of their construction
// parameters, the operation index n, and the trace time at — never of
// wall-clock time or shared state — so a fault run replays exactly.
//
// What "operation" means is up to the injection point: the Source wrapper
// feeds read-call indices to stream-level schedules (Err, Stall,
// ShortBlock) and packet indices to frame-level ones (EOF, Truncate,
// ClockBack, ClockSkew); see SourceConfig. A nil Schedule never fires.
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
