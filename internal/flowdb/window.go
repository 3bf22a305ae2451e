package flowdb

// Rolling time windows: the streaming (Server.Serve) answer to the batch
// DB's append-forever growth. Producers append finished flows to DBs of
// their own and seal them window by window; Windowed.Flush completes one
// window from its sealed parts, hands it to the Observe and Flush hooks,
// and leaves the parts to their owners to Reset and refill — bounded heap
// over unbounded input.
//
// Serve's pipelines seal on the capture clock: the goroutine that reads
// packets opens window k at the first packet at or past its start, so a
// window holds every flow emitted while handling the packets that fall in
// it, plus, for the last window, the flows flushed at the end of the
// capture. Flows are never reordered, only chopped, and a flow is never
// added to a window that was already flushed:
//
//   - With one part per window, concatenating the flushed windows
//     reproduces a batch run's DB record for record.
//     TestServeWindowsMatchBatch asserts this.
//   - Flushed windows are immutable the moment Flush returns.
//
// Add and Close drive Flush from one producer on a different clock: the
// largest flow End added so far (TestWindowedMatchesBatch).

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Window is one completed partition handed to WindowConfig.Flush.
type Window struct {
	// Index is the window's ordinal, counting every flushed window from 0.
	// Empty windows are never flushed and take no index.
	Index int
	// Start and End are the window's trace-time bounds [Start, End). End -
	// Start is the configured width, except for the final window Close
	// flushes, which ends at the emission clock when that is later.
	Start, End time.Duration
	// DB holds the window's flows. It is valid only for the duration of
	// the Flush call: its storage is recycled for a later window as soon
	// as Flush returns. Copy (or serialize) what must outlive the call.
	DB *DB
}

// WindowConfig assembles a Windowed store.
type WindowConfig struct {
	// Width is the window length in trace time that Add partitions by.
	// Zero means 5 minutes. Flush takes each window's bounds from its
	// caller instead.
	Width time.Duration
	// Observe sees each completed window BEFORE Flush, and before the
	// window's storage is recycled — the pre-discard hook streaming
	// analytics hang off. It runs even when Flush is nil (the common
	// serve-mode configuration: checkpoint spooling off, analytics on).
	// Same lifetime contract as Flush: the Window's DB is only valid for
	// the duration of the call.
	Observe func(Window)
	// Flush receives each completed window, in order. The Window's DB is
	// reused after Flush returns — see Window.DB. A nil Flush discards
	// completed windows (useful when a Sink downstream already observed
	// every flow). A Flush error is sticky: it is returned by the call
	// that flushed the window and by every later Flush, Add and Close, and
	// no hook runs again.
	//
	// Ordering contract per window: Observe(win), then Flush(win), then
	// the window's storage is recycled. An Observe hook therefore sees
	// every flow that ever entered the store exactly once.
	Flush func(Window) error
}

// Windowed completes windows: it merges each window's sealed parts, runs
// the hooks, and keeps the sticky error and the flushed count. Flush, Add
// and Close must be serialized — Serve calls Flush from one goroutine;
// WindowsFlushed is safe to call concurrently from other goroutines (the
// metrics endpoint reads it live).
type Windowed struct {
	cfg WindowConfig
	// merged receives the parts of a window sealed by more than one
	// producer; it is reset once the hooks return.
	merged *DB
	index  int
	err    error

	// Add's open window: cur holds its flows since [start, start+Width)
	// opened; clock is the largest flow End added so far.
	cur          *DB
	start, clock time.Duration

	flushed atomic.Uint64 // shared with concurrent metric readers
}

// NewWindowed creates a store that completes windows with cfg's hooks.
func NewWindowed(cfg WindowConfig) *Windowed {
	if cfg.Width <= 0 {
		cfg.Width = 5 * time.Minute
	}
	return &Windowed{cfg: cfg}
}

// Flush completes the window [start, end) whose flows are the rows of
// parts, in argument order: one part is handed to the hooks as it is, and
// more are first merged into a DB the store keeps and recycles. A window
// with no flow is skipped: no hook sees it and no index is spent. The
// parts stay their caller's, unchanged, to Reset and reuse once Flush
// returns. Flush returns the sticky error (see WindowConfig.Flush).
func (w *Windowed) Flush(start, end time.Duration, parts ...*DB) error {
	if w.err != nil {
		return w.err
	}
	db := parts[0]
	if len(parts) > 1 {
		if w.merged == nil {
			w.merged = New()
		}
		db = w.merged
		db.Merge(parts...)
		defer db.Reset() // release the window's strings once the hooks return
	}
	if db.Len() == 0 {
		return nil
	}
	win := Window{Index: w.index, Start: start, End: end, DB: db}
	w.index++
	if w.cfg.Observe != nil {
		w.cfg.Observe(win)
	}
	var err error
	if w.cfg.Flush != nil {
		err = w.cfg.Flush(win)
	}
	w.flushed.Add(1)
	if err != nil {
		w.err = fmt.Errorf("flowdb: window %d flush: %w", win.Index, err)
	}
	return w.err
}

// Add appends one flow to the open window. When f.End moves the emission
// clock (the largest End added so far) to or past the window's end, the
// window is flushed first, and the next one opens where the clock falls:
// one flush covers an emission gap, whose empty windows are skipped. It is
// a single producer's way to drive Flush, for callers that hold flows
// rather than a capture clock.
func (w *Windowed) Add(f LabeledFlow) error {
	if w.err != nil {
		return w.err
	}
	w.clock = max(w.clock, f.End)
	if w.cur == nil {
		w.cur = New()
		w.start = w.clock.Truncate(w.cfg.Width)
	} else if w.clock >= w.start+w.cfg.Width {
		if err := w.flushCur(w.start + w.cfg.Width); err != nil {
			return err
		}
		w.start = w.clock.Truncate(w.cfg.Width)
	}
	w.cur.Add(f)
	return nil
}

// Close flushes Add's final window, if it holds flows, and returns the
// sticky error. The store must not be used after Close.
func (w *Windowed) Close() error {
	if w.err != nil || w.cur == nil {
		return w.err
	}
	return w.flushCur(max(w.clock, w.start+w.cfg.Width))
}

// flushCur flushes Add's open window as [w.start, end) and empties it.
func (w *Windowed) flushCur(end time.Duration) error {
	err := w.Flush(w.start, end, w.cur)
	w.cur.Reset() // drop the flushed window's records promptly
	return err
}

// WindowsFlushed returns the number of windows handed to the hooks so far.
// Safe for concurrent use.
func (w *Windowed) WindowsFlushed() uint64 { return w.flushed.Load() }
