package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/analytics/stream"
	"repro/internal/core"
	"repro/internal/flowdb"
	"repro/internal/synth"
)

// runMetrics produces a ServeMetrics populated by a real engine run.
func runMetrics(t *testing.T) *core.ServeMetrics {
	t.Helper()
	tr := synth.Generate(synth.QuickScenario(7))
	srv := core.NewServer(core.EngineConfig{Shards: 2}, core.ServeConfig{Window: 10 * time.Minute})
	if _, err := srv.Serve(context.Background(), tr.Source()); err != nil {
		t.Fatal(err)
	}
	return srv.Metrics()
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr.Code, rr.Body.String()
}

func TestHealthz(t *testing.T) {
	m := &core.ServeMetrics{}
	s := New(Config{Metrics: m})
	code, body := get(t, s.Handler(), "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthy: %d %q", code, body)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := New(Config{Metrics: runMetrics(t)})
	code, body := get(t, s.Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"# TYPE dnhunter_packets_total counter",
		"# TYPE dnhunter_heap_inuse_bytes gauge",
		"dnhunter_flows_total ",
		"dnhunter_windows_flushed_total ",
		"dnhunter_ring_depth{shard=\"0\"} ",
		"dnhunter_ring_depth{shard=\"1\"} ",
		"dnhunter_reader_mesh_full_parks_total{reader=\"0\"} ",
		"dnhunter_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, body)
		}
	}
	// One dispatcher: no second reader, and no series that would only
	// repeat dnhunter_packets_total or read a constant 0.
	for _, gone := range []string{
		"dnhunter_reader_mesh_full_parks_total{reader=\"1\"}",
		"dnhunter_reader_pkts_total",
		"dnhunter_reader_ring_full_parks_total",
		"dnhunter_reader_shed_frames_total",
	} {
		if strings.Contains(body, gone) {
			t.Fatalf("exposition still carries %q", gone)
		}
	}
	if strings.Contains(body, "dnhunter_packets_total 0\n") {
		t.Fatal("packet counter stayed zero after a real run")
	}
}

// statsDoc is the part of /stats.json the tests read: each key is a
// family name without the dnhunter_ prefix.
type statsDoc struct {
	Packets     float64 `json:"packets_total"`
	Flows       float64 `json:"flows_total"`
	HeapInuse   float64 `json:"heap_inuse_bytes"`
	Windows     float64 `json:"windows_flushed_total"`
	Degraded    float64 `json:"degraded"`
	FreshStarts float64 `json:"fault_checkpoint_fresh_starts_total"`
}

func TestStatsJSON(t *testing.T) {
	s := New(Config{Metrics: runMetrics(t)})
	code, body := get(t, s.Handler(), "/stats.json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var sm statsDoc
	if err := json.Unmarshal([]byte(body), &sm); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if sm.Packets == 0 || sm.Flows == 0 || sm.HeapInuse == 0 {
		t.Fatalf("zeroed snapshot: %+v", sm)
	}
	if sm.Windows == 0 {
		t.Fatal("no windows flushed in snapshot")
	}
}

// degradedMetrics produces a ServeMetrics from a run that rejected a
// corrupt checkpoint — the simplest real path into the degraded state.
func degradedMetrics(t *testing.T) *core.ServeMetrics {
	t.Helper()
	tr := synth.Generate(synth.QuickScenario(9))
	path := filepath.Join(t.TempDir(), "clist.ckpt")
	if err := os.WriteFile(path, []byte("DNHCLIST\x02 not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := core.NewServer(core.EngineConfig{}, core.ServeConfig{Window: 10 * time.Minute, CheckpointPath: path})
	if _, err := srv.Serve(context.Background(), tr.Source()); err != nil {
		t.Fatal(err)
	}
	return srv.Metrics()
}

func TestHealthzDegraded(t *testing.T) {
	s := New(Config{Metrics: degradedMetrics(t)})
	code, body := get(t, s.Handler(), "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "degraded") {
		t.Fatalf("degraded healthz: %d %q (must stay 200 — degraded, not dead)", code, body)
	}
}

func TestMetricsFaultExposition(t *testing.T) {
	// A healthy run exposes every fault counter, all zero.
	s := New(Config{Metrics: runMetrics(t)})
	_, body := get(t, s.Handler(), "/metrics")
	for _, want := range []string{
		`dnhunter_fault_source_errors_total{class="transient"} 0`,
		`dnhunter_fault_source_errors_total{class="fatal"} 0`,
		"dnhunter_fault_source_restarts_total 0",
		"dnhunter_fault_checkpoint_fresh_starts_total 0",
		"dnhunter_fault_error_budget_total 0",
		"dnhunter_degraded 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("healthy exposition missing %q in:\n%s", want, body)
		}
	}
	// A fresh-started run flips the degraded gauge and counts the reject.
	s = New(Config{Metrics: degradedMetrics(t)})
	_, body = get(t, s.Handler(), "/metrics")
	for _, want := range []string{
		"dnhunter_fault_checkpoint_fresh_starts_total 1",
		"dnhunter_degraded 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("degraded exposition missing %q in:\n%s", want, body)
		}
	}
}

func TestStatsJSONDegraded(t *testing.T) {
	s := New(Config{Metrics: degradedMetrics(t)})
	_, body := get(t, s.Handler(), "/stats.json")
	var sm statsDoc
	if err := json.Unmarshal([]byte(body), &sm); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if sm.Degraded != 1 || sm.FreshStarts != 1 {
		t.Fatalf("degraded snapshot: %+v", sm)
	}
}

// TestScrapeRate: the rate gauge is the packets read between two scrapes
// over the wall time between them, so across a finished run it is
// positive and at most the packets over the time the test saw pass
// between its own scrapes.
func TestScrapeRate(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(7))
	srv := core.NewServer(core.EngineConfig{Shards: 2}, core.ServeConfig{Window: 10 * time.Minute})
	s := New(Config{Metrics: srv.Metrics()})
	get(t, s.Handler(), "/metrics") // anchor scrape
	start := time.Now()
	if _, err := srv.Serve(context.Background(), tr.Source()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	_, body := get(t, s.Handler(), "/metrics")
	exp := parseExposition(t, body)
	rate, pkts := exp.value(t, "dnhunter_pkts_per_sec"), exp.value(t, "dnhunter_packets_total")
	if rate <= 0 || rate > pkts/elapsed {
		t.Fatalf("pkts_per_sec = %g, want in (0, %g] (%g packets in %.3fs)", rate, pkts/elapsed, pkts, elapsed)
	}
}

// analyticsPipeline builds a small live pipeline with a few observed flows.
func analyticsPipeline(t *testing.T) *analytics.Pipeline {
	t.Helper()
	p := analytics.NewPipeline(stream.NewTopDomains(5, 64), analytics.NewExactCoverage(0))
	for _, label := range []string{"a.example.com", "a.example.com", "b.example.com"} {
		f := flowdb.LabeledFlow{Label: label, SLD: "example.com", Labeled: true}
		p.Observe(&f)
	}
	return p
}

func TestAnalyticsJSON(t *testing.T) {
	s := New(Config{Metrics: &core.ServeMetrics{}, Analytics: analyticsPipeline(t)})
	code, body := get(t, s.Handler(), "/analytics.json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var env struct {
		ObservedFlows uint64 `json:"observed_flows"`
		Queries       []struct {
			Name   string          `json:"name"`
			Result json.RawMessage `json:"result"`
		} `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if env.ObservedFlows != 3 {
		t.Fatalf("observed_flows = %d, want 3", env.ObservedFlows)
	}
	if len(env.Queries) != 2 || env.Queries[0].Name != "top_domains" || env.Queries[1].Name != "coverage" {
		t.Fatalf("queries: %+v", env.Queries)
	}
	if !strings.Contains(string(env.Queries[0].Result), "a.example.com") {
		t.Fatalf("top_domains result missing observed key: %s", env.Queries[0].Result)
	}
}

func TestAnalyticsJSONDisabled(t *testing.T) {
	s := New(Config{Metrics: &core.ServeMetrics{}})
	if code, _ := get(t, s.Handler(), "/analytics.json"); code != http.StatusNotFound {
		t.Fatalf("no-pipeline /analytics.json status %d, want 404", code)
	}
}

func TestAnalyticsMetricsGauges(t *testing.T) {
	s := New(Config{Metrics: &core.ServeMetrics{}, Analytics: analyticsPipeline(t)})
	_, body := get(t, s.Handler(), "/metrics")
	for _, want := range []string{
		"# TYPE dnhunter_analytics_topk gauge",
		`dnhunter_analytics_topk{query="top_domains",key="a.example.com"} 2`,
		`dnhunter_analytics_topk{query="top_domains",key="b.example.com"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, body)
		}
	}
}

func TestLabelEscape(t *testing.T) {
	if got := labelEscape("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("labelEscape = %q", got)
	}
}

func TestStartServesOverTCP(t *testing.T) {
	s := New(Config{Listen: "127.0.0.1:0", Metrics: runMetrics(t)})
	errs := make(chan error, 1)
	if err := s.Start(errs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "dnhunter_packets_total") {
		t.Fatalf("TCP scrape: %d %q", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("serve error: %v", err)
	}
}
