package faults

import (
	"time"

	"repro/internal/core"
	"repro/internal/flowdb"
)

// SinkConfig arms the fault kinds a Sink injects into the consumer side
// of the pipeline. Schedules see the flow-callback index (the n-th OnFlow
// call) and the flow's trace time.
type SinkConfig struct {
	// Block makes the firing OnFlow call sleep BlockFor before delivering
	// — a wedged downstream consumer. Long enough blocks are exactly what
	// ServeConfig.DrainTimeout exists to bound.
	Block    Schedule
	BlockFor time.Duration

	// Err arms a deferred failure: when it fires on a flow callback the
	// wrapper records ErrValue (default ErrSinkInjected) and Close returns
	// it — the Sink interface's only error path.
	Err      Schedule
	ErrValue error
}

// Sink wraps a pipeline sink with schedule-driven fault injection. The
// engine serializes all Sink calls (see core.Sink), so the wrapper keeps
// plain counters.
type Sink struct {
	inner core.Sink
	cfg   SinkConfig
	errV  error
	off   bool
	n     uint64
	armed error // recorded by a firing Err schedule; returned by Close
}

// NewSink wraps inner (which may be nil) with the faults cfg arms. An
// unarmed config is a transparent pass-through.
func NewSink(inner core.Sink, cfg SinkConfig) *Sink {
	s := &Sink{inner: inner, cfg: cfg, off: cfg.Block == nil && cfg.Err == nil}
	s.errV = cfg.ErrValue
	if s.errV == nil {
		s.errV = ErrSinkInjected
	}
	return s
}

// OnTag implements core.Sink.
func (s *Sink) OnTag(e core.TagEvent) {
	if s.inner != nil {
		s.inner.OnTag(e)
	}
}

// OnDNSResponse implements core.Sink.
func (s *Sink) OnDNSResponse(e core.DNSEvent) {
	if s.inner != nil {
		s.inner.OnDNSResponse(e)
	}
}

// OnFlow implements core.Sink; it is the injection point.
func (s *Sink) OnFlow(f flowdb.LabeledFlow) {
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
func (s *Sink) Close() error {
	var err error
	if s.inner != nil {
		err = s.inner.Close()
	}
	if err == nil {
		err = s.armed
	}
	return err
}

var _ core.Sink = (*Sink)(nil)
