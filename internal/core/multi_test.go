package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flowdb"
	"repro/internal/netio"
	"repro/internal/synth"
)

// flowMultisetNoVantage is flowMultiset with the vantage label cleared, so
// single-source RunSources output (stamped with its source name) can be
// compared against Run output (unstamped): the records must be identical in
// every other field.
func flowMultisetNoVantage(db *flowdb.DB) map[string]int {
	m := make(map[string]int, db.Len())
	for _, f := range db.All() {
		f.Vantage = ""
		m[fmt.Sprintf("%+v", f)]++
	}
	return m
}

// TestRunSourcesSingleEquivalence is the PR's exact-equivalence invariant:
// one registered source produces aggregate Stats and flow multisets
// identical to the single-source Run path, for one shard and for many.
func TestRunSourcesSingleEquivalence(t *testing.T) {
	tr := synth.Generate(synth.NamedScenario(synth.NameEU1FTTH, 0.12, 3))
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			single := runEngine(t, tr, shards)
			eng := NewEngine(EngineConfig{Shards: shards})
			multi, err := eng.RunSources(context.Background(),
				[]NamedSource{{Name: "EU1", Src: tr.Source(), Truth: tr.TruthFunc()}})
			if err != nil {
				t.Fatal(err)
			}
			if multi.Stats != single.Stats {
				t.Errorf("aggregate stats diverge:\n run        %+v\n runsources %+v", single.Stats, multi.Stats)
			}
			if got := multi.PerVantage["EU1"].Stats; got != single.Stats {
				t.Errorf("per-vantage stats diverge:\n run        %+v\n runsources %+v", single.Stats, got)
			}
			diffMultisets(t, flowMultisetNoVantage(single.DB), flowMultisetNoVantage(multi.DB), "merged-vs-run")
			for _, f := range multi.DB.All() {
				if f.Vantage != "EU1" {
					t.Fatalf("flow missing vantage stamp: %+v", f)
				}
			}
			if got := multi.DB.Vantages(); len(got) != 1 || got[0] != "EU1" {
				t.Errorf("Vantages() = %v", got)
			}
			if n := len(multi.DB.ByVantage("EU1")); n != multi.DB.Len() {
				t.Errorf("ByVantage covers %d of %d flows", n, multi.DB.Len())
			}
		})
	}
}

// TestRunSourcesIsolation: each vantage's partition must be exactly what a
// standalone Run over that source produces — concurrent ingestion shares no
// state across vantages even though the synthetic client address spaces
// collide completely.
func TestRunSourcesIsolation(t *testing.T) {
	traces := map[string]*synth.Trace{
		"US":  synth.Generate(synth.NamedScenario(synth.NameUS3G, 0.1, 5)),
		"EU1": synth.Generate(synth.NamedScenario(synth.NameEU1FTTH, 0.1, 7)),
		"EU2": synth.Generate(synth.QuickScenario(11)),
	}
	order := []string{"US", "EU1", "EU2"}
	for _, shards := range []int{1, 3} {
		var sources []NamedSource
		for _, name := range order {
			tr := traces[name]
			sources = append(sources, NamedSource{Name: name, Src: tr.Source(), Truth: tr.TruthFunc()})
		}
		eng := NewEngine(EngineConfig{Shards: shards})
		multi, err := eng.RunSources(context.Background(), sources)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}

		var want Stats
		total := 0
		for _, name := range order {
			solo := runEngine(t, traces[name], shards)
			vr := multi.PerVantage[name]
			if vr.Stats != solo.Stats {
				t.Errorf("shards=%d vantage %s stats diverge from solo run:\n solo  %+v\n multi %+v",
					shards, name, solo.Stats, vr.Stats)
			}
			diffMultisets(t, flowMultisetNoVantage(solo.DB), flowMultisetNoVantage(vr.DB),
				fmt.Sprintf("shards=%d vantage=%s", shards, name))
			want.Add(vr.Stats)
			total += vr.DB.Len()
			if n := len(multi.DB.ByVantage(name)); n != vr.DB.Len() {
				t.Errorf("shards=%d: merged ByVantage(%s) has %d flows, partition has %d",
					shards, name, n, vr.DB.Len())
			}
		}
		if multi.Stats != want {
			t.Errorf("shards=%d: aggregate stats != sum of partitions", shards)
		}
		if multi.DB.Len() != total {
			t.Errorf("shards=%d: merged DB has %d flows, partitions sum to %d", shards, multi.DB.Len(), total)
		}
	}
}

// TestRunSourcesDeterminism: same sources, same results, run to run.
func TestRunSourcesDeterminism(t *testing.T) {
	gen := func() []NamedSource {
		a := synth.Generate(synth.QuickScenario(41))
		b := synth.Generate(synth.QuickScenario(43))
		return []NamedSource{
			{Name: "A", Src: a.Source(), Truth: a.TruthFunc()},
			{Name: "B", Src: b.Source(), Truth: b.TruthFunc()},
		}
	}
	eng := NewEngine(EngineConfig{Shards: 2})
	r1, err := eng.RunSources(context.Background(), gen())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.RunSources(context.Background(), gen())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Errorf("stats not deterministic:\n %+v\n %+v", r1.Stats, r2.Stats)
	}
	diffMultisets(t, flowMultiset(r1.DB), flowMultiset(r2.DB), "rerun")
}

// vantageSink records which vantage labels appear on each event type.
type vantageSink struct {
	mu     sync.Mutex
	tags   map[string]int
	dns    map[string]int
	flows  map[string]int
	closed int
}

func newVantageSink() *vantageSink {
	return &vantageSink{tags: map[string]int{}, dns: map[string]int{}, flows: map[string]int{}}
}

func (s *vantageSink) OnTag(e TagEvent)         { s.mu.Lock(); s.tags[e.Vantage]++; s.mu.Unlock() }
func (s *vantageSink) OnDNSResponse(e DNSEvent) { s.mu.Lock(); s.dns[e.Vantage]++; s.mu.Unlock() }
func (s *vantageSink) OnFlow(f flowdb.LabeledFlow) {
	s.mu.Lock()
	s.flows[f.Vantage]++
	s.mu.Unlock()
}
func (s *vantageSink) Close() error { s.mu.Lock(); s.closed++; s.mu.Unlock(); return nil }

// TestRunSourcesSinkAttribution: the shared sink sees every vantage's
// events exactly once, each stamped with its vantage name, and Close fires
// exactly once for the whole run.
func TestRunSourcesSinkAttribution(t *testing.T) {
	a := synth.Generate(synth.QuickScenario(17))
	b := synth.Generate(synth.QuickScenario(19))
	for _, shards := range []int{1, 4} {
		sink := newVantageSink()
		eng := NewEngine(EngineConfig{Shards: shards, Sink: sink})
		multi, err := eng.RunSources(context.Background(), []NamedSource{
			{Name: "A", Src: a.Source()},
			{Name: "B", Src: b.Source()},
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if sink.closed != 1 {
			t.Errorf("shards=%d: Close ran %d times", shards, sink.closed)
		}
		for _, name := range []string{"A", "B"} {
			st := multi.PerVantage[name].Stats
			if uint64(sink.dns[name]) != st.DNSResponses {
				t.Errorf("shards=%d vantage %s: %d DNS events, want %d", shards, name, sink.dns[name], st.DNSResponses)
			}
			if uint64(sink.flows[name]) != st.Flows {
				t.Errorf("shards=%d vantage %s: %d flow events, want %d", shards, name, sink.flows[name], st.Flows)
			}
			if uint64(sink.tags[name]) != st.Table.FlowsCreated {
				t.Errorf("shards=%d vantage %s: %d tag events, want %d", shards, name, sink.tags[name], st.Table.FlowsCreated)
			}
		}
		if n := len(sink.tags) + len(sink.dns) + len(sink.flows); sink.tags[""]+sink.dns[""]+sink.flows[""] != 0 {
			t.Errorf("shards=%d: events with empty vantage label (%d label sets)", shards, n)
		}
	}
}

// stallSource yields pkts, then blocks in Next until release (or abort) is
// closed, then reports io.EOF.
type stallSource struct {
	pkts           []netio.Packet
	i              int
	release, abort <-chan struct{}
}

func (s *stallSource) Next() (netio.Packet, error) {
	if s.i < len(s.pkts) {
		s.i++
		return s.pkts[s.i-1], nil
	}
	select {
	case <-s.release:
	case <-s.abort:
	}
	return netio.Packet{}, io.EOF
}

// eofSignalSource closes done when its inner source reports io.EOF.
type eofSignalSource struct {
	src  netio.PacketSource
	done chan struct{}
	once sync.Once
}

func (s *eofSignalSource) Next() (netio.Packet, error) {
	p, err := s.src.Next()
	if err == io.EOF {
		s.once.Do(func() { close(s.done) })
	}
	return p, err
}

// TestRunSourcesStalledVantageDoesNotBlockSiblings: vantages are
// independent engines, so a source that stalls mid-trace holds back only its
// own vantage. "stuck" blocks in Next after 10 packets until "ok" — a
// 29-minute trace — has reached EOF; RunSources must then finish, with the
// healthy vantage's result exactly what a solo run produces.
func TestRunSourcesStalledVantageDoesNotBlockSiblings(t *testing.T) {
	ok := synth.Generate(synth.QuickScenario(17))
	stuck := synth.Generate(synth.QuickScenario(19))
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			okDone, abort := make(chan struct{}), make(chan struct{})
			defer close(abort)
			done := make(chan struct{})
			var multi *MultiResult
			var err error
			go func() {
				defer close(done)
				multi, err = NewEngine(EngineConfig{Shards: shards}).RunSources(context.Background(), []NamedSource{
					{Name: "stuck", Src: &stallSource{pkts: stuck.Packets[:10], release: okDone, abort: abort}},
					{Name: "ok", Src: &eofSignalSource{src: ok.Source(), done: okDone}},
				})
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("a stalled vantage kept RunSources from returning")
			}
			if err != nil {
				t.Fatal(err)
			}
			solo, err := NewEngine(EngineConfig{Shards: shards}).Run(context.Background(), ok.Source())
			if err != nil {
				t.Fatal(err)
			}
			if got := multi.PerVantage["ok"].Stats; got != solo.Stats {
				t.Errorf("healthy vantage stats diverge from a solo run:\n got %+v\nwant %+v", got, solo.Stats)
			}
			diffMultisets(t, flowMultiset(solo.DB), flowMultisetNoVantage(multi.PerVantage["ok"].DB), "ok-vs-solo")
		})
	}
}

// TestRunSourcesCancel: cancellation stops every vantage's reader, the
// error surfaces, and the sink still closes exactly once.
func TestRunSourcesCancel(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(31))
	for _, shards := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		sink := newVantageSink()
		eng := NewEngine(EngineConfig{Shards: shards, Sink: sink})
		_, err := eng.RunSources(ctx, []NamedSource{
			{Name: "A", Src: &endlessSource{pkts: tr.Packets}},
			{Name: "B", Src: &endlessSource{pkts: tr.Packets}},
		})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shards=%d: err = %v, want deadline exceeded", shards, err)
		}
		if sink.closed != 1 {
			t.Errorf("shards=%d: Close ran %d times after cancel", shards, sink.closed)
		}
	}
}

// TestRunSourcesSourceError: one failing vantage aborts the run; the error
// names the vantage and wraps the cause.
func TestRunSourcesSourceError(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(37))
	srcErr := errors.New("capture ring overrun")
	res, err := NewEngine(EngineConfig{}).RunSources(context.Background(), []NamedSource{
		{Name: "ok", Src: tr.Source()},
		{Name: "bad", Src: &failingSource{pkts: tr.Packets[:50], err: srcErr}},
	})
	if !errors.Is(err, srcErr) {
		t.Fatalf("err = %v, want wrapped source error", err)
	}
	if !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("error does not name the failing vantage: %v", err)
	}
	// Failure isolation: the healthy vantage's full result survives.
	if res == nil {
		t.Fatal("no partial MultiResult alongside the vantage error")
	}
	if !errors.Is(res.Errors["bad"], srcErr) {
		t.Errorf("Errors[bad] = %v, want the source error", res.Errors["bad"])
	}
	if _, dead := res.PerVantage["bad"]; dead {
		t.Error("failed vantage present in PerVantage")
	}
	solo, serr := NewEngine(EngineConfig{}).RunSources(context.Background(), []NamedSource{
		{Name: "ok", Src: tr.Source()},
	})
	if serr != nil {
		t.Fatal(serr)
	}
	if got, want := res.PerVantage["ok"].Stats, solo.PerVantage["ok"].Stats; got != want {
		t.Errorf("surviving vantage stats diverge from a solo run:\n got %+v\nwant %+v", got, want)
	}
	if got, want := res.DB.Len(), solo.DB.Len(); got != want {
		t.Errorf("partial merged DB has %d flows, solo run has %d", got, want)
	}
	if res.Stats != solo.Stats {
		t.Errorf("partial aggregate stats include the dead vantage: %+v vs %+v", res.Stats, solo.Stats)
	}
}

// TestRunSourcesAggregatesAllErrors: every failed vantage is reported —
// errors.Join exposes each cause, none hides behind the first.
func TestRunSourcesAggregatesAllErrors(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(41))
	errA := errors.New("fiber cut at A")
	errB := errors.New("disk full at B")
	res, err := NewEngine(EngineConfig{}).RunSources(context.Background(), []NamedSource{
		{Name: "A", Src: &failingSource{pkts: tr.Packets[:20], err: errA}},
		{Name: "ok", Src: tr.Source()},
		{Name: "B", Src: &failingSource{pkts: tr.Packets[:40], err: errB}},
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error misses a vantage failure: %v", err)
	}
	if len(res.Errors) != 2 || !errors.Is(res.Errors["A"], errA) || !errors.Is(res.Errors["B"], errB) {
		t.Errorf("Errors map = %v", res.Errors)
	}
	if len(res.PerVantage) != 1 || res.PerVantage["ok"] == nil {
		t.Errorf("PerVantage = %v, want only the survivor", res.PerVantage)
	}
	if got := res.Vantages; len(got) != 3 {
		t.Errorf("Vantages = %v, want all three names in order", got)
	}
}

// TestRunSourcesValidation: bad source lists fail fast.
func TestRunSourcesValidation(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(39))
	eng := NewEngine(EngineConfig{})
	cases := map[string][]NamedSource{
		"empty":     {},
		"unnamed":   {{Name: "", Src: tr.Source()}},
		"duplicate": {{Name: "X", Src: tr.Source()}, {Name: "X", Src: tr.Source()}},
		"nil-src":   {{Name: "X", Src: nil}},
	}
	for name, sources := range cases {
		if _, err := eng.RunSources(context.Background(), sources); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
