package dnhunter

// Streaming service mode at the public API surface: Server.Serve is
// Engine.Run for unbounded input. See internal/core's serve.go for the
// mechanics (windowed flow store, overload shedding, checkpoint/restore,
// graceful drain) and docs/OPERATIONS.md for running it in production.

import (
	"time"

	"repro/internal/core"
	"repro/internal/flowdb"
	"repro/internal/netio"
)

type (
	// ServeConfig tunes streaming mode: window width, flush hook, overload
	// shedding, checkpoint path, drain timeout.
	ServeConfig = core.ServeConfig
	// ServeReport is the outcome of one graceful Serve.
	ServeReport = core.ServeReport
	// ServeMetrics is the live, concurrently readable state of a serving
	// engine (packets, flows, drops, windows, ring depths).
	ServeMetrics = core.ServeMetrics
	// Server is a streaming instance of one engine configuration.
	Server = core.Server
	// ShedShard is one shard's overload drop counters.
	ShedShard = core.ShedShard
	// RestartPolicy configures serve-mode source supervision
	// (ServeConfig.Restart): the restart error budget and seeded
	// exponential backoff.
	RestartPolicy = core.RestartPolicy
	// Window is one completed flow-store partition handed to
	// ServeConfig.FlushWindow; its DB is valid only during the call.
	Window = flowdb.Window
	// Packet is one captured frame (timestamp + bytes).
	Packet = netio.Packet
	// LoopSource replays an in-memory trace for N passes (or forever) —
	// the run-forever input for soaks and demos.
	LoopSource = netio.LoopSource
	// PacedSource throttles any source to its capture timeline.
	PacedSource = netio.PacedSource
)

// NewLoopSource wraps packets in a LoopSource; see netio.NewLoopSource.
func NewLoopSource(packets []Packet, period time.Duration, passes int) *LoopSource {
	return netio.NewLoopSource(packets, period, passes)
}

// NewPacedSource wraps src in a PacedSource; see netio.NewPacedSource.
func NewPacedSource(src PacketSource, speedup float64) *PacedSource {
	return netio.NewPacedSource(src, speedup)
}

// Server builds a streaming server around this engine's configuration:
// eng.Server(cfg).Serve(ctx, src) streams src through the pipeline until
// ctx is cancelled, then drains gracefully. Unlike Run it bounds memory:
// finished flows leave through rolling windows (ServeConfig.Window wide)
// handed to FlushWindow instead of accumulating in a Result.DB. Hold the
// Server when the caller needs its live Metrics view (e.g. to mount the
// HTTP endpoint).
func (e *Engine) Server(cfg ServeConfig) *Server {
	return core.NewServer(e.cfg, cfg)
}
