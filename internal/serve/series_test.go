package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

// promSample is one parsed exposition sample.
type promSample struct {
	family string
	labels map[string]string
	value  float64
}

// exposition is a parsed /metrics body.
type exposition struct {
	help, typ map[string]int // HELP / TYPE lines per family
	samples   []promSample
}

var labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")

// parseExposition parses a text exposition and checks its shape: every
// family's HELP and TYPE come before its first sample, and a family's
// lines are contiguous, so no family appears twice.
func parseExposition(t *testing.T, body string) exposition {
	t.Helper()
	exp := exposition{help: map[string]int{}, typ: map[string]int{}}
	done := map[string]bool{} // families whose block has ended
	cur := ""
	enter := func(family string) {
		if family == cur {
			return
		}
		if done[family] {
			t.Errorf("family %s appears twice", family)
		}
		done[cur], cur = true, family
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if kind, rest, ok := strings.Cut(line, " "); ok && kind == "#" {
			kw, rest, _ := strings.Cut(rest, " ")
			family, _, _ := strings.Cut(rest, " ")
			enter(family)
			if len(exp.samples) > 0 && exp.samples[len(exp.samples)-1].family == family {
				t.Errorf("%s: %s after a sample", family, kw)
			}
			switch kw {
			case "HELP":
				exp.help[family]++
			case "TYPE":
				exp.typ[family]++
			default:
				t.Errorf("unexpected comment %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		s := promSample{family: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.family, '{'); i >= 0 {
			ls := strings.TrimSuffix(s.family[i+1:], "}")
			s.family = s.family[:i]
			for ls != "" {
				k, rest, _ := strings.Cut(ls, `="`)
				end := 0
				for end < len(rest) && rest[end] != '"' {
					if rest[end] == '\\' {
						end++
					}
					end++
				}
				s.labels[k] = labelUnescaper.Replace(rest[:end])
				ls = strings.TrimPrefix(rest[min(end+1, len(rest)):], ",")
			}
		}
		enter(s.family)
		if exp.help[s.family] != 1 || exp.typ[s.family] != 1 {
			t.Errorf("%s: sample with %d HELP and %d TYPE lines before it, want 1 and 1", s.family, exp.help[s.family], exp.typ[s.family])
		}
		exp.samples = append(exp.samples, s)
	}
	return exp
}

// value returns the one unlabeled sample of family.
func (e exposition) value(t *testing.T, family string) float64 {
	t.Helper()
	for _, s := range e.samples {
		if s.family == family && len(s.labels) == 0 {
			return s.value
		}
	}
	t.Fatalf("no %s sample", family)
	return 0
}

// TestMetricsMatchStatsJSON: /metrics and /stats.json render the same
// declarations, so after a finished run every exposition sample has the
// same value under the same family and labels in /stats.json. The three
// families that move between scrapes are left out.
func TestMetricsMatchStatsJSON(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(7))
	srv := core.NewServer(core.EngineConfig{Shards: 2}, core.ServeConfig{Window: 10 * time.Minute, Shed: true})
	if _, err := srv.Serve(context.Background(), tr.Source()); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Metrics: srv.Metrics(), Analytics: analyticsPipeline(t)})
	_, body := get(t, s.Handler(), "/metrics")
	exp := parseExposition(t, body)
	_, js := get(t, s.Handler(), "/stats.json")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(js), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, js)
	}

	seen := map[string]bool{}
	for _, sm := range exp.samples {
		seen[sm.family] = true
		key, ok := strings.CutPrefix(sm.family, prefix)
		if !ok {
			t.Errorf("family %s lacks the %s prefix", sm.family, prefix)
		}
		switch key {
		case "pkts_per_sec", "heap_inuse_bytes", "uptime_seconds":
			continue
		}
		raw, ok := doc[key]
		if !ok {
			t.Errorf("/stats.json has no %q", key)
			continue
		}
		if len(sm.labels) == 0 {
			var v float64
			if err := json.Unmarshal(raw, &v); err != nil || v != sm.value {
				t.Errorf("%s: /metrics %g, /stats.json %s", key, sm.value, raw)
			}
			continue
		}
		var rows []map[string]any
		if err := json.Unmarshal(raw, &rows); err != nil {
			t.Errorf("%s: %v", key, err)
			continue
		}
		found := false
		for _, row := range rows {
			v, _ := row["value"].(float64)
			delete(row, "value")
			labels := map[string]string{}
			for k, l := range row {
				labels[k], _ = l.(string)
			}
			if maps.Equal(labels, sm.labels) {
				found = true
				if v != sm.value {
					t.Errorf("%s%v: /metrics %g, /stats.json %g", key, sm.labels, sm.value, v)
				}
			}
		}
		if !found {
			t.Errorf("%s%v: no /stats.json row", key, sm.labels)
		}
	}
	// The run had two shards with shedding on and a top-k pipeline: every
	// labeled family is present.
	for _, f := range []string{"ring_depth", "reader_mesh_full_parks_total", "shard_dropped_dns_total", "fault_source_errors_total", "analytics_topk"} {
		if !seen[prefix+f] {
			t.Errorf("exposition lacks %s%s", prefix, f)
		}
	}
}

// TestScrapeWhileServing: the families read the engine's live counters,
// so /metrics and /stats.json may be scraped from several goroutines at
// once while the engine runs (meaningful under -race).
func TestScrapeWhileServing(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(7))
	srv := core.NewServer(core.EngineConfig{Shards: 2}, core.ServeConfig{Window: 10 * time.Minute, Shed: true})
	s := New(Config{Metrics: srv.Metrics(), Analytics: analyticsPipeline(t)})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/stats.json", "/metrics"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rr := httptest.NewRecorder()
				s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
				if rr.Code != http.StatusOK {
					t.Errorf("%s: status %d", path, rr.Code)
					return
				}
			}
		}()
	}
	_, err := srv.Serve(context.Background(), tr.Source())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// Markers around the generated table in docs/OPERATIONS.md.
const (
	tableBegin = "<!-- metrics-table:begin (generated by TestOperationsMetricsTable in internal/serve; edit the declarations, not this table) -->\n"
	tableEnd   = "<!-- metrics-table:end -->"
)

// TestOperationsMetricsTable: the OPERATIONS.md metrics reference is the
// declaration list rendered as a table. On drift it prints the block to
// paste between the markers.
func TestOperationsMetricsTable(t *testing.T) {
	s := New(Config{Metrics: &core.ServeMetrics{}, Analytics: analyticsPipeline(t)})
	var b strings.Builder
	b.WriteString("| Metric | Type | Meaning |\n| --- | --- | --- |\n")
	for _, f := range s.series {
		if strings.ContainsAny(f.Help, "|\n\\") {
			t.Errorf("%s: help text must not contain '|', '\\' or a newline: %q", f.Name, f.Help)
		}
		name := f.Name
		if f.Labels != nil {
			name += "{" + strings.Join(f.Labels, ",") + "}"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", name, f.Type, f.Help)
	}
	want := b.String()

	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok1 := strings.Cut(string(doc), tableBegin)
	got, _, ok2 := strings.Cut(rest, tableEnd)
	if !ok1 || !ok2 {
		t.Fatalf("docs/OPERATIONS.md lacks the markers; put this between\n%s%s\n%s", tableBegin, want, tableEnd)
	}
	if got != want {
		t.Fatalf("docs/OPERATIONS.md metrics table is out of date; replace the lines between the markers with:\n\n%s", want)
	}
}
