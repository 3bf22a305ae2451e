// Package serve exposes a streaming engine's live state over HTTP: a
// health endpoint for orchestration probes, a Prometheus-format metrics
// endpoint for scraping, and a JSON snapshot for humans with curl.
//
// Every exported value is a core.Series family, declared once: the
// engine's come from (*core.ServeMetrics).Series, which reads its atomic
// counters, so a scrape never contends with the packet path; this package
// appends the families it owns (the scrape-to-scrape packet rate, heap,
// uptime and the analytics top-k gauges). /metrics and /stats.json are
// two loops over that one list, and OPERATIONS.md's metrics table is a
// third, kept in step by a test.
//
// Endpoints:
//
//	GET /healthz         200 "ok" while serving, 200 "degraded" while serving
//	                     after source restarts or a checkpoint fresh start,
//	                     503 "draining" during drain
//	GET /metrics         Prometheus text exposition (see OPERATIONS.md)
//	GET /stats.json      the same families as one JSON object keyed by
//	                     name without the dnhunter_ prefix
//	GET /analytics.json  live analytics-pipeline snapshot (when configured)
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
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

// prefix starts every exported family name.
const prefix = "dnhunter_"

// Server serves the observability endpoints for one streaming engine.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	http    *http.Server
	ln      net.Listener
	series  []core.Series // every family, in exposition order
	started time.Time

	mu         sync.Mutex
	lastScrape time.Time
	lastPkts   uint64
	rate       float64
}

// New builds a server; call Start to begin listening.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux(), started: time.Now()}
	s.series = append(cfg.Metrics.Series(), s.processSeries()...)
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

// processSeries declares the families the metrics server owns rather than
// the engine: the scrape-to-scrape packet rate, the process heap and
// uptime, and — with a pipeline — the top-k analytics gauges. core cannot
// declare the last one: it does not import internal/analytics.
func (s *Server) processSeries() []core.Series {
	out := []core.Series{
		{Name: "pkts_per_sec", Type: "gauge",
			Help: "packet rate over the last scrape interval (computed scrape-to-scrape; the first scrape reads 0)",
			Read: func(emit func(float64, ...string)) { emit(s.scrapeRate()) }},
		{Name: "heap_inuse_bytes", Type: "gauge",
			Help: "runtime.MemStats.HeapInuse at scrape time",
			Read: func(emit func(float64, ...string)) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				emit(float64(ms.HeapInuse))
			}},
		{Name: "uptime_seconds", Type: "gauge",
			Help: "wall time since the metrics server started",
			Read: func(emit func(float64, ...string)) { emit(time.Since(s.started).Seconds()) }},
	}
	if p := s.cfg.Analytics; p != nil {
		// Only TopKResult-shaped queries surface here — counts with a
		// bounded, low-cardinality label set; the full structured results
		// live on /analytics.json.
		out = append(out, core.Series{Name: "analytics_topk", Type: "gauge", Labels: []string{"query", "key"},
			Help: "estimated flow count per top-k key, one series per (query, key); only with -analytics, and only once the first window has flushed",
			Read: func(emit func(float64, ...string)) {
				for _, qr := range p.Snapshot() {
					if tk, ok := qr.Result.(analytics.TopKResult); ok {
						for _, e := range tk.Entries {
							emit(float64(e.Count), qr.Name, e.Key)
						}
					}
				}
			}})
	}
	return out
}

// scrapeRate updates and returns the packet rate between this scrape and
// the previous one (0 on the first).
func (s *Server) scrapeRate() float64 {
	pkts := s.cfg.Metrics.Packets()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.lastScrape.IsZero() {
		if dt := now.Sub(s.lastScrape).Seconds(); dt > 0 {
			s.rate = float64(pkts-s.lastPkts) / dt
		}
	}
	s.lastScrape, s.lastPkts = now, pkts
	return s.rate
}

// statsJSON writes every family as one JSON object keyed by its name
// without the prefix: an unlabeled family is a number, a labeled one an
// array of {label…, "value"} objects (absent while it has no samples).
func (s *Server) statsJSON(w http.ResponseWriter, _ *http.Request) {
	out := make(map[string]any, len(s.series))
	for _, f := range s.series {
		var rows []map[string]any
		f.Read(func(v float64, labels ...string) {
			if f.Labels == nil {
				out[f.Name] = v
				return
			}
			row := map[string]any{"value": v}
			for i, l := range labels {
				row[f.Labels[i]] = l
			}
			rows = append(rows, row)
		})
		if rows != nil {
			out[f.Name] = rows
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
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

// labelEscaper escapes a Prometheus label value: backslash, quote and
// newline are the three characters the exposition format reserves.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func labelEscape(v string) string { return labelEscaper.Replace(v) }

// metrics writes the Prometheus text exposition format (version 0.0.4):
// each family's "# HELP"/"# TYPE" pair, then one sample per line. A
// labeled family with no samples is left out entirely. The format is
// plain text by design, so strconv is all it takes.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	var b []byte
	for _, f := range s.series {
		header := false
		f.Read(func(v float64, labels ...string) {
			if !header {
				b = fmt.Appendf(b, "# HELP %s%s %s\n# TYPE %s%s %s\n", prefix, f.Name, f.Help, prefix, f.Name, f.Type)
				header = true
			}
			b = append(append(b, prefix...), f.Name...)
			for i, l := range labels {
				sep := byte(',')
				if i == 0 {
					sep = '{'
				}
				b = fmt.Appendf(append(b, sep), "%s=\"%s\"", f.Labels[i], labelEscape(l))
			}
			if len(labels) > 0 {
				b = append(b, '}')
			}
			b = append(strconv.AppendFloat(append(b, ' '), v, 'f', -1, 64), '\n')
		})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b)
}
