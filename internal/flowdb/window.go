package flowdb

// Rolling time-windowed partitions: the streaming (Server.Serve) answer to
// the batch DB's append-forever growth. A Windowed store accumulates
// labeled flows into the current window's DB and, when the emission clock
// crosses the window boundary, hands the completed window to a flush
// callback and recycles the DB storage — bounded heap over unbounded
// input.
//
// Windows partition the *emission order*, not flow end times. Flows reach
// the store in the order the pipeline emits them (idle expiry emits a flow
// IdleTimeout after its last packet; end-of-run flush emits the
// residuals), and each window is a contiguous chunk of that sequence: a
// window rotates when an arriving flow's End has advanced the clock past
// the boundary, and every flow emitted before the rotation belongs to the
// closing window regardless of its own End. Two properties follow:
//
//   - Concatenating the flushed windows (plus the final Close window)
//     reproduces a batch run's DB record-for-record — nothing is
//     reordered, only chopped. TestWindowedMatchesBatch asserts this.
//   - A flow is never retroactively inserted into an already-flushed
//     window, so flushed windows are immutable the moment Flush returns.

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Window is one completed partition handed to WindowConfig.Flush. The DB
// holds every flow emitted while the window was current; Start/End bound
// the emission clock (max flow End seen so far) for which the window was
// current.
type Window struct {
	// Index is the rotation ordinal, counting every flushed window from 0.
	Index int
	// Start and End are the window's trace-time bounds [Start, End). End -
	// Start is the configured width except for the final partial window
	// flushed by Close and for windows closing an emission gap.
	Start, End time.Duration
	// DB holds the window's flows. It is valid only for the duration of
	// the Flush call: the Windowed store recycles its storage for a later
	// window as soon as Flush returns. Copy (or serialize) what must
	// outlive the call.
	DB *DB
}

// WindowConfig assembles a Windowed store.
type WindowConfig struct {
	// Width is the window length in trace time. Zero means 5 minutes.
	Width time.Duration
	// Observe sees each completed window BEFORE Flush, and before the
	// window's storage is recycled — the pre-discard hook streaming
	// analytics hang off. It runs even when Flush is nil (the common
	// serve-mode configuration: checkpoint spooling off, analytics on),
	// which is exactly the case where flows used to vanish without any
	// observer seeing them. Same lifetime contract as Flush: the Window's
	// DB is only valid for the duration of the call.
	Observe func(Window)
	// Flush receives each completed window, in order. The Window's DB is
	// reused after Flush returns — see Window.DB. A nil Flush discards
	// completed windows (useful when a Sink downstream already observed
	// every flow). A Flush error is sticky: it fails the Add that
	// triggered it and every subsequent Add and Close.
	//
	// Ordering contract per rotation: Observe(win), then Flush(win), then
	// the window's storage is recycled. An Observe hook therefore sees
	// every flow that ever entered the store, including the final partial
	// window on Close, and sees it exactly once.
	Flush func(Window) error
}

// Windowed is the rolling-window labeled-flow store. Add and Close must
// be serialized (the Engine's SyncSink already does); WindowsFlushed,
// FlushLag, and Clock are safe to call concurrently from other
// goroutines — the metrics endpoint reads them live.
type Windowed struct {
	cfg   WindowConfig
	cur   *DB
	spare *DB
	index int
	// start is the current window's lower bound; meaningless until the
	// first Add sets it.
	started bool
	start   time.Duration
	err     error

	// Shared with concurrent metric readers.
	clockNs atomic.Int64
	lagNs   atomic.Int64
	flushed atomic.Uint64
}

// NewWindowed creates a store that partitions flows into cfg.Width-wide
// windows.
func NewWindowed(cfg WindowConfig) *Windowed {
	if cfg.Width <= 0 {
		cfg.Width = 5 * time.Minute
	}
	return &Windowed{cfg: cfg, cur: New(), spare: New()}
}

// Add appends one flow to the current window, rotating first if f.End
// pushes the emission clock past the window boundary.
func (w *Windowed) Add(f LabeledFlow) error {
	if w.err != nil {
		return w.err
	}
	clock := time.Duration(w.clockNs.Load())
	if f.End > clock {
		clock = f.End
		w.clockNs.Store(int64(clock))
	}
	if !w.started {
		w.started = true
		w.start = (clock / w.cfg.Width) * w.cfg.Width
	} else if clock >= w.start+w.cfg.Width {
		// The clock crossed the boundary: everything emitted so far
		// belongs to the closing window. One flush covers the whole gap —
		// trailing empty windows are skipped, not flushed, so a long
		// emission pause costs one rotation, not gap/Width of them.
		if err := w.rotate(w.start + w.cfg.Width); err != nil {
			return err
		}
		w.start = (clock / w.cfg.Width) * w.cfg.Width
	}
	w.cur.Add(f)
	w.lagNs.Store(int64(clock - w.start))
	return nil
}

// rotate flushes the current window as [w.start, end) and swaps in the
// recycled spare DB.
func (w *Windowed) rotate(end time.Duration) error {
	win := Window{Index: w.index, Start: w.start, End: end, DB: w.cur}
	w.index++
	w.cur, w.spare = w.spare, w.cur
	w.cur.Reset()
	if w.cfg.Observe != nil {
		w.cfg.Observe(win)
	}
	var err error
	if w.cfg.Flush != nil {
		err = w.cfg.Flush(win)
	}
	w.spare.Reset() // drop the flushed window's records promptly
	w.flushed.Add(1)
	if err != nil {
		w.err = fmt.Errorf("flowdb: window %d flush: %w", win.Index, err)
	}
	return w.err
}

// Close flushes the final partial window (if any flows arrived since the
// last rotation) and returns the sticky error state. The store must not
// be used after Close.
func (w *Windowed) Close() error {
	if w.err != nil {
		return w.err
	}
	if !w.started || w.cur.Len() == 0 {
		return nil
	}
	end := time.Duration(w.clockNs.Load())
	if wend := w.start + w.cfg.Width; wend > end {
		end = wend
	}
	return w.rotate(end)
}

// WindowsFlushed returns the number of windows handed to Flush so far.
// Safe for concurrent use.
func (w *Windowed) WindowsFlushed() uint64 { return w.flushed.Load() }

// FlushLag returns how far the emission clock has advanced past the open
// window's start — how much trace time of flows is currently buffered
// awaiting the next rotation. Bounded by the window width plus the
// largest single clock jump. Safe for concurrent use.
func (w *Windowed) FlushLag() time.Duration { return time.Duration(w.lagNs.Load()) }
