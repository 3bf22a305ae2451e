package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/netio"
	"repro/internal/synth"
)

// servedWindow is one window as FlushWindow saw it.
type servedWindow struct {
	index      int
	start, end time.Duration
	csv        []byte // WriteCSV bytes, header included
}

// serveWindows serves src at the given shard count and window width and
// returns every flushed window.
func serveWindows(t *testing.T, shards int, width time.Duration, src netio.PacketSource) ([]servedWindow, *ServeReport) {
	t.Helper()
	var got []servedWindow
	srv := NewServer(EngineConfig{Shards: shards}, ServeConfig{
		Window: width,
		FlushWindow: func(w flowdb.Window) error {
			var b bytes.Buffer
			if err := w.DB.WriteCSV(&b); err != nil {
				return err
			}
			got = append(got, servedWindow{w.Index, w.Start, w.End, b.Bytes()})
			return nil
		},
	})
	rep, err := srv.Serve(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return got, rep
}

// sortedRows is a window's CSV rows, header dropped, sorted.
func sortedRows(csv []byte) []string {
	rows := strings.SplitAfter(string(csv[bytes.IndexByte(csv, '\n')+1:]), "\n")
	slices.Sort(rows)
	return rows
}

// TestServeWindowsSameAtEveryShardCount: windows follow the capture clock,
// so window k holds the same flows at every shard count — same bounds,
// same row multiset — and at a fixed shard count the same bytes run to
// run, the shards' parts merged in shard order. Windows are 10 s wide so
// that many boundaries fall on a packet that emits flows (a close or an
// idle sweep), which must land after the seal at every shard count.
func TestServeWindowsSameAtEveryShardCount(t *testing.T) {
	const width = 10 * time.Second
	tr := synth.Generate(synth.QuickScenario(47))
	want, _ := serveWindows(t, 1, width, tr.Source())
	if len(want) < 100 {
		t.Fatalf("flushed %d windows over a 30-minute trace, want >= 100", len(want))
	}
	for _, shards := range []int{2, 4} {
		got, rep := serveWindows(t, shards, width, tr.Source())
		if len(got) != len(want) || rep.Windows != uint64(len(want)) {
			t.Fatalf("shards=%d: flushed %d windows (report %d), shards=1 flushed %d", shards, len(got), rep.Windows, len(want))
		}
		for k := range want {
			w, g := want[k], got[k]
			if g.index != k || g.start != w.start || g.end != w.end {
				t.Fatalf("shards=%d: window %d is #%d [%v, %v), want #%d [%v, %v)", shards, k, g.index, g.start, g.end, k, w.start, w.end)
			}
			if !slices.Equal(sortedRows(g.csv), sortedRows(w.csv)) {
				t.Fatalf("shards=%d: window %d holds other rows than at shards=1", shards, k)
			}
		}
		if shards != 2 {
			continue
		}
		again, _ := serveWindows(t, shards, width, tr.Source())
		for k := range got {
			if !bytes.Equal(again[k].csv, got[k].csv) {
				t.Fatalf("shards=2: window %d's CSV differs between two runs", k)
			}
		}
	}
}

// gatedSource delivers its packets, then blocks until gate closes, then
// reports EOF: a live capture gone quiet.
type gatedSource struct {
	pkts []netio.Packet
	gate chan struct{}
}

func (g *gatedSource) Next() (netio.Packet, error) {
	var one [1]netio.Packet
	if _, err := g.ReadBlock(one[:]); err != nil {
		return netio.Packet{}, err
	}
	return one[0], nil
}

func (g *gatedSource) ReadBlock(dst []netio.Packet) (int, error) {
	if n := copy(dst, g.pkts); n > 0 {
		g.pkts = g.pkts[n:]
		return n, nil
	}
	<-g.gate
	return 0, io.EOF
}

// TestServeQuietShardsFlushWhileServing: one client, so every packet goes
// to one of four shards, and 1-minute windows. The dispatcher opens each
// window on every shard, so the three shards that see no traffic seal
// their empty parts too, and windows flush while the source is still
// open, not only at the drain.
func TestServeQuietShardsFlushWhileServing(t *testing.T) {
	tb := &traceBuilder{t: t}
	for m := range 5 {
		for k := range 6 {
			at := time.Duration(m)*time.Minute + time.Duration(k)*10*time.Second
			tb.dnsResponse(at, clientA, "www.example.com", srv1)
			tb.httpFlow(at+time.Second, clientA, srv1, uint16(40000+6*m+k), "www.example.com")
		}
	}
	src := &gatedSource{pkts: tb.pkts, gate: make(chan struct{})}
	srv := NewServer(EngineConfig{Shards: 4}, ServeConfig{Window: time.Minute})
	type out struct {
		rep *ServeReport
		err error
	}
	done := make(chan out, 1)
	go func() {
		rep, err := srv.Serve(context.Background(), src)
		done <- out{rep, err}
	}()
	// All five minutes are read: windows 0-3 flush while the source is
	// open, and then only the open window, which started at minute 4, is
	// behind the clock.
	flushed := func() float64 { return metricValue(t, srv.Metrics(), "windows_flushed_total") }
	lag := func() float64 { return metricValue(t, srv.Metrics(), "window_flush_lag_seconds") }
	deadline := time.Now().Add(10 * time.Second)
	for flushed() < 4 || lag() >= 60 {
		if time.Now().After(deadline) {
			// Serve may be wedged on a window that never completes: fail
			// without waiting for it.
			close(src.gate)
			t.Fatalf("while serving: %v windows flushed, lag %vs; want 4 and under 60s", flushed(), lag())
		}
		time.Sleep(time.Millisecond)
	}
	close(src.gate)
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.rep.Windows != 5 || o.rep.Stats.Flows != 30 {
		t.Fatalf("served %d windows and %d flows, want 5 and 30", o.rep.Windows, o.rep.Stats.Flows)
	}
	owner := shardOfAddr(clientA, 4)
	for i, h := range srv.pipes {
		if st := h.Stats(); uint32(i) != owner && st.Flows+st.DNSResponses != 0 {
			t.Fatalf("shard %d was meant to be quiet, saw %d flows and %d responses", i, st.Flows, st.DNSResponses)
		}
	}
}

// TestServeObserveBeforeFlush: each window reaches ObserveWindow, then
// FlushWindow, with the same DB, before the next window reaches either.
func TestServeObserveBeforeFlush(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(53))
	var order []string
	var observed *flowdb.DB
	srv := NewServer(EngineConfig{Shards: 2}, ServeConfig{
		ObserveWindow: func(w flowdb.Window) {
			observed = w.DB
			order = append(order, fmt.Sprintf("observe%d:%d", w.Index, w.DB.Len()))
		},
		FlushWindow: func(w flowdb.Window) error {
			if w.DB != observed {
				t.Errorf("window %d: FlushWindow got another DB than ObserveWindow", w.Index)
			}
			order = append(order, fmt.Sprintf("flush%d:%d", w.Index, w.DB.Len()))
			return nil
		},
	})
	rep, err := srv.Serve(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows < 3 || len(order) != 2*int(rep.Windows) {
		t.Fatalf("%d windows, hook calls %v", rep.Windows, order)
	}
	for i := 0; i < len(order); i += 2 {
		o, f := order[i], order[i+1]
		if !strings.HasPrefix(o, "observe") || "flush"+strings.TrimPrefix(o, "observe") != f {
			t.Fatalf("hook calls out of order: %v", order)
		}
	}
}

// TestServeFlushErrorFailsServe: a FlushWindow error fails Serve, and it
// is sticky — no window hook runs after it.
func TestServeFlushErrorFailsServe(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(59))
	boom := errors.New("boom")
	for _, shards := range []int{1, 2} {
		var observes, flushes int
		srv := NewServer(EngineConfig{Shards: shards}, ServeConfig{
			ObserveWindow: func(flowdb.Window) { observes++ },
			FlushWindow: func(flowdb.Window) error {
				flushes++
				return boom
			},
		})
		_, err := srv.Serve(context.Background(), tr.Source())
		if !errors.Is(err, boom) {
			t.Fatalf("shards=%d: Serve returned %v, want %v", shards, err, boom)
		}
		if observes != 1 || flushes != 1 {
			t.Fatalf("shards=%d: hooks ran %d and %d times after the error, want once each", shards, observes, flushes)
		}
	}
}

// closeSink records its Close after the windows FlushWindow saw.
type closeSink struct {
	NopSink
	mu     *sync.Mutex
	events *[]string
}

func (s closeSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	*s.events = append(*s.events, "close")
	return nil
}

// TestServeFinalWindowBeforeSinkClose: the drain flushes the final window
// before it closes the user's sink.
func TestServeFinalWindowBeforeSinkClose(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(61))
	for _, shards := range []int{1, 2} {
		var mu sync.Mutex
		var events []string
		srv := NewServer(EngineConfig{Shards: shards, Sink: closeSink{mu: &mu, events: &events}}, ServeConfig{
			FlushWindow: func(w flowdb.Window) error {
				mu.Lock()
				defer mu.Unlock()
				events = append(events, fmt.Sprintf("flush%d", w.Index))
				return nil
			},
		})
		rep, err := srv.Serve(context.Background(), tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("flush%d", rep.Windows-1)
		if n := len(events); rep.Windows < 2 || n != int(rep.Windows)+1 || events[n-2] != want || events[n-1] != "close" {
			t.Fatalf("shards=%d: %d windows, events %v; want the final %s, then close", shards, rep.Windows, events, want)
		}
	}
}

// TestWarmWindowCycleAllocFree drives two shards' window cycle
// synchronously, as TestShardedDispatchZeroAlloc drives the hand-off:
// every pass is a window, which the dispatcher opens on both rings; each
// shard seals the previous one and takes a recycled DB back, and the
// flusher merges the two parts, runs the hooks and returns the DBs. Once
// warm, the whole cycle allocates nothing.
func TestWarmWindowCycleAllocFree(t *testing.T) {
	pkts := allocTrace(t)
	const shards = 2
	const seed = 0x9e3779b97f4a7c15
	var rows int
	ws := newWindows(time.Second, shards, flowdb.NewWindowed(flowdb.WindowConfig{
		Observe: func(w flowdb.Window) { rows += w.DB.Len() },
		Flush:   func(flowdb.Window) error { return nil },
	}))
	d := &dispatcher{rings: make([]*ring, shards), tracker: flows.NewTracker(nil, 0, seed), clock: ws.clock()}
	d.idle = d.tracker.IdleTimeout()
	d.assign, d.expire = d.shardOf, d.enqueueExpire
	workers := make([]*shardWorker, shards)
	for i := range workers {
		d.rings[i] = newRing(ringDepth, defaultBatch)
		workers[i] = &shardWorker{
			h:    New(Config{Resolver: resolverCfg(), Flows: flows.Config{DisableAutoSweep: true, Seed: seed}}),
			ring: d.rings[i],
			win:  &shardWindow{ws: ws, i: i},
		}
	}
	ws.start()
	defer func() {
		ws.abort()
		ws.wait()
	}()
	block := make([]netio.Packet, len(pkts))
	pass := 0
	replay := func() {
		pass++
		d.dispatchBlock(replayAt(block, pkts, time.Duration(pass)*time.Second), nil)
		for _, w := range workers {
			for s := w.ring.tryConsume(); len(s) > 0; s = w.ring.tryConsume() {
				w.process(s)
				w.ring.release(s)
			}
		}
		// Pass p sealed window p-1: wait for the flusher to finish it.
		for ws.store.WindowsFlushed() < uint64(pass-1) {
			runtime.Gosched()
		}
	}
	for range 3 {
		replay() // warm: both shards' DBs, the merge DB, the remap scratch
	}
	if n := testing.AllocsPerRun(20, replay); n != 0 {
		t.Fatalf("warm seal → flush → recycle pass allocates %v, want 0", n)
	}
	if want := (pass - 1) * flowsPerPass; rows != want {
		t.Fatalf("the hooks saw %d rows over %d flushed windows, want %d", rows, pass-1, want)
	}
}
