package core

import (
	"sync"

	"repro/internal/flowdb"
)

// Sink receives the pipeline's event stream. It replaces the loose
// Config.OnTag / Config.OnDNSResponse callback fields with one composable
// interface that also observes finished flows and end-of-run.
//
// Ordering guarantees: events for one client (its DNS responses, its flows'
// tag events, its finished flows) are always delivered in trace order. When
// the Engine runs with more than one shard, events of *different* clients
// may interleave arbitrarily; the Engine serializes the configured Sink's
// calls through a mutex (see SyncSink), so implementations never need
// internal locking unless they are also read concurrently from outside the
// pipeline. That lock covers the user's Sink only: serve mode's windows and
// event counters work outside it, per shard, and the window hooks
// (ServeConfig.ObserveWindow and FlushWindow) run on a goroutine of their
// own, concurrently with Sink calls.
//
// Close fires exactly once, after the last event of the run, whether the
// run completed or was cancelled.
type Sink interface {
	// OnTag fires the moment a flow is first seen and labeled — at the SYN
	// for flows caught from their first segment.
	OnTag(TagEvent)
	// OnDNSResponse fires for every decoded DNS response carrying at least
	// one address record.
	OnDNSResponse(DNSEvent)
	// OnFlow fires when a flow finishes (close, idle expiry, or end of
	// capture) with its full labeled record.
	OnFlow(flowdb.LabeledFlow)
	// Close flushes the sink. The pipeline reports its error to the caller
	// of Engine.Run.
	Close() error
}

// NopSink is a Sink that ignores everything. Embed it to implement only the
// events a consumer cares about:
//
//	type tagCounter struct {
//		core.NopSink
//		n int
//	}
//
//	func (c *tagCounter) OnTag(core.TagEvent) { c.n++ }
type NopSink struct{}

// OnTag implements Sink.
func (NopSink) OnTag(TagEvent) {}

// OnDNSResponse implements Sink.
func (NopSink) OnDNSResponse(DNSEvent) {}

// OnFlow implements Sink.
func (NopSink) OnFlow(flowdb.LabeledFlow) {}

// Close implements Sink.
func (NopSink) Close() error { return nil }

// FuncSink adapts plain functions to the Sink interface; nil fields are
// skipped. It bridges the legacy Config callbacks onto the new API.
type FuncSink struct {
	Tag  func(TagEvent)
	DNS  func(DNSEvent)
	Flow func(flowdb.LabeledFlow)
}

// OnTag implements Sink.
func (s *FuncSink) OnTag(e TagEvent) {
	if s.Tag != nil {
		s.Tag(e)
	}
}

// OnDNSResponse implements Sink.
func (s *FuncSink) OnDNSResponse(e DNSEvent) {
	if s.DNS != nil {
		s.DNS(e)
	}
}

// OnFlow implements Sink.
func (s *FuncSink) OnFlow(f flowdb.LabeledFlow) {
	if s.Flow != nil {
		s.Flow(f)
	}
}

// Close implements Sink.
func (s *FuncSink) Close() error { return nil }

// SyncSink wraps s so every call holds a mutex. The sharded Engine applies
// it to the configured Sink, and to nothing else; it is exported for
// consumers who share one sink across independently running pipelines.
func SyncSink(s Sink) Sink {
	if s == nil {
		return nil
	}
	return &syncSink{inner: s}
}

type syncSink struct {
	mu    sync.Mutex
	inner Sink
}

func (s *syncSink) OnTag(e TagEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.OnTag(e)
}

func (s *syncSink) OnDNSResponse(e DNSEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.OnDNSResponse(e)
}

func (s *syncSink) OnFlow(f flowdb.LabeledFlow) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.OnFlow(f)
}

func (s *syncSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Close()
}
