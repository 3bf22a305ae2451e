// Package serve exposes a streaming engine's live state over HTTP: a
// health endpoint for orchestration probes, a Prometheus-format metrics
// endpoint for scraping, and a JSON snapshot for humans with curl. It
// reads only the atomic counters core.ServeMetrics publishes, so a
// scrape never contends with the packet path.
//
// Endpoints:
//
//	GET /healthz         200 "ok" while serving, 200 "degraded" while serving
//	                     after source restarts or a checkpoint fresh start,
//	                     503 "draining" during drain
//	GET /metrics         Prometheus text exposition (see OPERATIONS.md)
//	GET /stats.json      the same numbers as one JSON object
//	GET /analytics.json  live analytics-pipeline snapshot (when configured)
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
)

// Config configures a metrics server.
type Config struct {
	// Listen is the TCP listen address, e.g. ":8053" or "127.0.0.1:0".
	Listen string
	// Metrics is the engine's live metrics view; required.
	Metrics *core.ServeMetrics
	// Analytics, when non-nil, enables GET /analytics.json (the pipeline's
	// live snapshot in registration order) and the top-k gauges on
	// /metrics. The pipeline's own mutex makes snapshotting safe while the
	// serving goroutine feeds it.
	Analytics *analytics.Pipeline
}

// Server serves the observability endpoints for one streaming engine.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener

	mu         sync.Mutex
	lastScrape time.Time
	lastPkts   uint64
	rate       float64
	started    time.Time
}

// New builds a server; call Start to begin listening.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/metrics", s.metrics)
	s.mux.HandleFunc("/stats.json", s.statsJSON)
	if cfg.Analytics != nil {
		s.mux.HandleFunc("/analytics.json", s.analyticsJSON)
	}
	return s
}

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start begins listening on cfg.Listen and serves until Shutdown. It
// returns once the listener is bound, so Addr is valid immediately;
// errs receives the terminal serve error (nil on clean shutdown).
func (s *Server) Start(errs chan<- error) error {
	ln, err := net.Listen("tcp", s.cfg.Listen)
	if err != nil {
		return err
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		err := s.http.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		if errs != nil {
			errs <- err
		}
	}()
	return nil
}

// Addr returns the bound listen address (resolving ":0" ports).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops the HTTP server, waiting for in-flight scrapes.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.http == nil {
		return nil
	}
	return s.http.Shutdown(ctx)
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	// Draining wins: the pod is going away, stop routing to it. Degraded
	// still answers 200 — the engine is serving, just with gaps (source
	// restarts, checkpoint fresh start) — so orchestrators keep it while
	// operators alert on the body or on dnhunter_degraded.
	if s.cfg.Metrics.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.cfg.Metrics.Degraded() {
		fmt.Fprintln(w, "degraded")
		return
	}
	fmt.Fprintln(w, "ok")
}

// sample is one consistent point-in-time reading of every exported value.
type sample struct {
	Packets         uint64            `json:"packets"`
	Bytes           uint64            `json:"bytes"`
	PktsPerSec      float64           `json:"pkts_per_sec"`
	TraceClock      float64           `json:"trace_clock_seconds"`
	Flows           uint64            `json:"flows"`
	Labeled         uint64            `json:"labeled_flows"`
	Tags            uint64            `json:"tags"`
	DNSResponses    uint64            `json:"dns_responses"`
	Dropped         core.ShedShard    `json:"dropped"`
	DropShards      []core.ShedShard  `json:"dropped_per_shard,omitempty"`
	Windows         uint64            `json:"windows_flushed"`
	FlushLag        float64           `json:"window_flush_lag_seconds"`
	RingDepths      []int             `json:"ring_depths,omitempty"`
	Readers         []core.ReaderStat `json:"readers,omitempty"`
	ArenaRetired    uint64            `json:"arena_blocks_retired"`
	ArenaAvgNs      float64           `json:"arena_block_retire_avg_ns"`
	Restored        uint64            `json:"restored_entries"`
	Draining        bool              `json:"draining"`
	Degraded        bool              `json:"degraded"`
	FaultsTransient uint64            `json:"fault_source_errors_transient"`
	FaultsFatal     uint64            `json:"fault_source_errors_fatal"`
	SourceRestarts  uint64            `json:"fault_source_restarts"`
	FreshStarts     uint64            `json:"fault_checkpoint_fresh_starts"`
	BudgetTotal     int64             `json:"fault_error_budget_total"`
	BudgetRemaining int64             `json:"fault_error_budget_remaining"`
	HeapInuse       uint64            `json:"heap_inuse_bytes"`
	Uptime          float64           `json:"uptime_seconds"`
}

// snapshot reads the metrics and updates the scrape-to-scrape packet
// rate under the mutex.
func (s *Server) snapshot() sample {
	m := s.cfg.Metrics
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	pkts := m.Packets()
	now := time.Now()
	s.mu.Lock()
	if !s.lastScrape.IsZero() {
		if dt := now.Sub(s.lastScrape).Seconds(); dt > 0 {
			s.rate = float64(pkts-s.lastPkts) / dt
		}
	}
	s.lastScrape = now
	s.lastPkts = pkts
	rate := s.rate
	uptime := now.Sub(s.started).Seconds()
	s.mu.Unlock()

	ar := m.ArenaStats()
	var retireAvg float64
	if ar.Retired > 0 {
		retireAvg = float64(ar.RetireNs) / float64(ar.Retired)
	}
	ftr, ffa := m.SourceErrors()
	btot, brem := m.RestartBudget()

	return sample{
		Packets:         pkts,
		Bytes:           m.Bytes(),
		PktsPerSec:      rate,
		TraceClock:      m.TraceClock().Seconds(),
		Flows:           m.Flows(),
		Labeled:         m.LabeledFlows(),
		Tags:            m.Tags(),
		DNSResponses:    m.DNSResponses(),
		Dropped:         m.Shed.Totals(),
		DropShards:      m.Shed.PerShard(),
		Windows:         m.WindowsFlushed(),
		FlushLag:        m.WindowFlushLag().Seconds(),
		RingDepths:      m.RingDepths(),
		Readers:         m.ReaderStats(),
		ArenaRetired:    ar.Retired,
		ArenaAvgNs:      retireAvg,
		Restored:        m.RestoredEntries(),
		Draining:        m.Draining(),
		Degraded:        m.Degraded(),
		FaultsTransient: ftr,
		FaultsFatal:     ffa,
		SourceRestarts:  m.SourceRestarts(),
		FreshStarts:     m.CheckpointFreshStarts(),
		BudgetTotal:     btot,
		BudgetRemaining: brem,
		HeapInuse:       ms.HeapInuse,
		Uptime:          uptime,
	}
}

func (s *Server) statsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot())
}

// analyticsEnvelope is the /analytics.json document.
type analyticsEnvelope struct {
	// ObservedFlows counts flows fed to the pipeline so far. In serve mode
	// it trails dnhunter_flows_total by up to one window: the pipeline
	// observes flows at window rotation, not at emission.
	ObservedFlows uint64                  `json:"observed_flows"`
	Queries       []analytics.QueryResult `json:"queries"`
}

func (s *Server) analyticsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(analyticsEnvelope{
		ObservedFlows: s.cfg.Analytics.Observed(),
		Queries:       s.cfg.Analytics.Snapshot(),
	})
}

// labelEscape escapes a Prometheus label value (backslash, quote,
// newline — the three characters the exposition format reserves).
func labelEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// analyticsMetrics renders the top-k query snapshots as labeled gauge
// series. Only TopKResult-shaped queries surface here — counts with a
// bounded, low-cardinality label set; the full structured results live
// on /analytics.json.
func analyticsMetrics(b *strings.Builder, p *analytics.Pipeline) {
	type series struct {
		query, key string
		count      uint64
	}
	var out []series
	for _, qr := range p.Snapshot() {
		tk, ok := qr.Result.(analytics.TopKResult)
		if !ok {
			continue
		}
		for _, e := range tk.Entries {
			out = append(out, series{query: qr.Name, key: e.Key, count: e.Count})
		}
	}
	if len(out) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP dnhunter_analytics_topk Estimated flow count per top-k key, by query.\n# TYPE dnhunter_analytics_topk gauge\n")
	for _, sr := range out {
		fmt.Fprintf(b, "dnhunter_analytics_topk{query=\"%s\",key=\"%s\"} %d\n", labelEscape(sr.query), labelEscape(sr.key), sr.count)
	}
}

// metrics writes the Prometheus text exposition format (version 0.0.4):
// "# HELP"/"# TYPE" comment pairs followed by one sample per line. The
// format is plain text by design, so stdlib fmt is all it takes.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	sm := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gaugeU := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("dnhunter_packets_total", "Frames read from the packet source.", sm.Packets)
	counter("dnhunter_bytes_total", "Frame bytes read from the packet source.", sm.Bytes)
	gaugeF("dnhunter_pkts_per_sec", "Packet rate over the last scrape interval.", sm.PktsPerSec)
	gaugeF("dnhunter_trace_clock_seconds", "Newest packet timestamp read (trace time).", sm.TraceClock)
	counter("dnhunter_flows_total", "Finished labeled-flow records emitted.", sm.Flows)
	counter("dnhunter_labeled_flows_total", "Emitted records that carried a DNS label.", sm.Labeled)
	counter("dnhunter_tags_total", "Flows tagged at their first packet.", sm.Tags)
	counter("dnhunter_dns_responses_total", "Decoded address-bearing DNS responses.", sm.DNSResponses)
	counter("dnhunter_dropped_flows_total", "Flow-path entries shed under overload.", sm.Dropped.Flows)
	counter("dnhunter_dropped_dns_total", "DNS entries shed under overload (lost tagging coverage).", sm.Dropped.DNS)
	counter("dnhunter_dropped_bytes_total", "Payload bytes shed under overload.", sm.Dropped.Bytes)
	counter("dnhunter_windows_flushed_total", "Completed flowdb windows flushed.", sm.Windows)
	gaugeF("dnhunter_window_flush_lag_seconds", "Trace time of flows buffered in the open window.", sm.FlushLag)
	if len(sm.RingDepths) > 0 {
		fmt.Fprintf(&b, "# HELP dnhunter_ring_depth Published-but-unreleased entries per shard ring, in batches (0 to 8).\n# TYPE dnhunter_ring_depth gauge\n")
		for i, d := range sm.RingDepths {
			fmt.Fprintf(&b, "dnhunter_ring_depth{shard=\"%d\"} %d\n", i, d)
		}
	}
	if len(sm.Readers) > 0 {
		fmt.Fprintf(&b, "# HELP dnhunter_reader_mesh_full_parks_total Dispatcher parks on full dispatcher-to-shard rings (a shard is the bottleneck).\n# TYPE dnhunter_reader_mesh_full_parks_total counter\n")
		for i, rs := range sm.Readers {
			fmt.Fprintf(&b, "dnhunter_reader_mesh_full_parks_total{reader=\"%d\"} %d\n", i, rs.MeshFullParks)
		}
	}
	counter("dnhunter_arena_blocks_retired_total", "Payload arena blocks whose last handle was released.", sm.ArenaRetired)
	gaugeF("dnhunter_arena_block_retire_ns_avg", "Mean time payload handles keep an arena block pinned, in nanoseconds.", sm.ArenaAvgNs)
	gaugeU("dnhunter_restored_entries", "Resolver entries restored from the checkpoint.", sm.Restored)
	fmt.Fprintf(&b, "# HELP dnhunter_fault_source_errors_total Source read errors by supervisor classification.\n# TYPE dnhunter_fault_source_errors_total counter\n")
	fmt.Fprintf(&b, "dnhunter_fault_source_errors_total{class=\"transient\"} %d\n", sm.FaultsTransient)
	fmt.Fprintf(&b, "dnhunter_fault_source_errors_total{class=\"fatal\"} %d\n", sm.FaultsFatal)
	counter("dnhunter_fault_source_restarts_total", "Supervised source restarts (transient errors recovered from).", sm.SourceRestarts)
	counter("dnhunter_fault_checkpoint_fresh_starts_total", "Checkpoint files rejected at startup, answered by a fresh start.", sm.FreshStarts)
	gaugeF("dnhunter_fault_error_budget_total", "Restart error budget configured by the policy (0 = supervision off).", float64(sm.BudgetTotal))
	gaugeF("dnhunter_fault_error_budget_remaining", "Restarts left before transient source errors become fatal.", float64(sm.BudgetRemaining))
	degraded := uint64(0)
	if sm.Degraded {
		degraded = 1
	}
	gaugeU("dnhunter_degraded", "1 after source restarts or a checkpoint fresh start (sticky for the run).", degraded)
	draining := uint64(0)
	if sm.Draining {
		draining = 1
	}
	gaugeU("dnhunter_draining", "1 while the engine is draining after cancellation.", draining)
	gaugeU("dnhunter_heap_inuse_bytes", "Bytes in in-use heap spans (runtime.MemStats.HeapInuse).", sm.HeapInuse)
	gaugeF("dnhunter_uptime_seconds", "Seconds since the metrics server started.", sm.Uptime)
	if s.cfg.Analytics != nil {
		analyticsMetrics(&b, s.cfg.Analytics)
	}

	w.Write([]byte(b.String()))
}
