package core

import (
	"bytes"
	"cmp"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/flowdb"
	"repro/internal/layers"
	"repro/internal/netio"
	"repro/internal/resolver"
	"repro/internal/synth"
)

// serveFlows runs tr through Serve with the given shards, collecting every
// flushed window's flows and the report.
func serveFlows(t *testing.T, tr *synth.Trace, shards int, scfg ServeConfig) ([]flowdb.LabeledFlow, *ServeReport) {
	t.Helper()
	var flows []flowdb.LabeledFlow
	scfg.FlushWindow = func(w flowdb.Window) error {
		flows = append(flows, w.DB.All()...)
		return nil
	}
	srv := NewServer(EngineConfig{Shards: shards, Truth: tr.TruthFunc()}, scfg)
	rep, err := srv.Serve(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	return flows, rep
}

// TestServeWindowsMatchBatch: the concatenation of flushed windows must
// reproduce a single-shard batch run record for record (windows chop the
// emission sequence; they never reorder it).
func TestServeWindowsMatchBatch(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(23))

	batch, err := NewEngine(EngineConfig{Shards: 1, Truth: tr.TruthFunc()}).Run(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}

	got, rep := serveFlows(t, tr, 1, ServeConfig{Window: 5 * time.Minute})
	if rep.Windows < 3 {
		t.Fatalf("flushed %d windows, want >= 3 rotations over a 30-minute trace", rep.Windows)
	}
	want := batch.DB.All()
	if len(got) != len(want) {
		t.Fatalf("windows hold %d flows, batch %d", len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		if w.Key != g.Key || w.Label != g.Label || w.Start != g.Start || w.End != g.End ||
			w.BytesC2S != g.BytesC2S || w.BytesS2C != g.BytesS2C {
			t.Fatalf("record %d diverges: batch %+v, serve %+v", i, w.Record, g.Record)
		}
	}
	if rep.Stats.Flows != batch.Stats.Flows || rep.Stats.LabeledFlows != batch.Stats.LabeledFlows {
		t.Fatalf("stats diverge: batch %d/%d, serve %d/%d",
			batch.Stats.Flows, batch.Stats.LabeledFlows, rep.Stats.Flows, rep.Stats.LabeledFlows)
	}
}

// TestServeDiscardsDB: serve mode must not accumulate flows outside the
// windowed store (the bounded-heap contract).
func TestServeDiscardsDB(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(23))
	srv := NewServer(EngineConfig{Shards: 1}, ServeConfig{Window: 5 * time.Minute})
	rep, err := srv.Serve(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Flows == 0 {
		t.Fatal("no flows served")
	}
	for _, h := range srv.pipes {
		if h.DB().Len() != 0 {
			t.Fatalf("pipeline DB holds %d flows in serve mode, want 0", h.DB().Len())
		}
	}
}

// TestServeGracefulDrain: cancelling the serve context over an infinite
// source must flush in-flight state and return cleanly, not abort.
func TestServeGracefulDrain(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(29))
	loop := netio.NewLoopSource(tr.Packets, 0, 0) // forever

	var flows []flowdb.LabeledFlow
	srv := NewServer(EngineConfig{Shards: 2}, ServeConfig{
		Window:       5 * time.Minute,
		DrainTimeout: 30 * time.Second,
		FlushWindow: func(w flowdb.Window) error {
			flows = append(flows, w.DB.All()...)
			return nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		// Cancel once the engine has demonstrably processed traffic.
		for metricValue(t, srv.Metrics(), "flows_total") == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(done)
	}()
	rep, err := srv.Serve(ctx, loop)
	<-done
	if err != nil {
		t.Fatalf("graceful drain returned %v", err)
	}
	if !srv.Metrics().Draining() {
		t.Fatal("draining metric never set")
	}
	if rep.Stats.Flows == 0 || len(flows) == 0 {
		t.Fatalf("drain flushed nothing: %d stat flows, %d window flows", rep.Stats.Flows, len(flows))
	}
	// Every emitted flow must have reached a flushed window (final partial
	// window included) — the drain really flushed, it didn't abort.
	if uint64(len(flows)) != rep.Stats.Flows {
		t.Fatalf("windows hold %d flows, stats emitted %d", len(flows), rep.Stats.Flows)
	}
}

// TestServeDrainTimeout: a source that keeps delivering after the stop
// signal is irrelevant — the drain EOF halts reads — so the timeout path
// only triggers when the pipeline itself wedges. Simulate with a sink
// that blocks forever on its first flow; Serve must abandon the wedged
// run and return an error within ~DrainTimeout.
func TestServeDrainTimeout(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(31))
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	entered := make(chan struct{})
	var once sync.Once
	sink := &FuncSink{Flow: func(flowdb.LabeledFlow) {
		once.Do(func() { close(entered) })
		<-block
	}}
	srv := NewServer(EngineConfig{Shards: 1, Sink: sink}, ServeConfig{DrainTimeout: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-entered // the pipeline is provably wedged on the sink
		cancel()
	}()
	_, err := srv.Serve(ctx, netio.NewLoopSource(tr.Packets, 0, 0))
	if err == nil {
		t.Fatal("wedged drain returned nil error")
	}
}

// TestServeCheckpointRestart: DNS context sniffed before a restart must
// keep labeling flows after it. Phase A serves the first half of a trace
// and writes a checkpoint; phase B serves the second half twice — with
// and without the checkpoint — and restoring must label at least as many
// flows, strictly more than zero of which come from phase-A responses.
func TestServeCheckpointRestart(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(37))
	half := len(tr.Packets) / 2
	ckpt := filepath.Join(t.TempDir(), "clist.ckpt")

	_, repA := serveFlows(t, &synth.Trace{Packets: tr.Packets[:half]}, 2, ServeConfig{CheckpointPath: ckpt})
	if repA.CheckpointedEntries == 0 {
		t.Fatal("phase A checkpointed no resolver entries")
	}

	second := func(path string, shards int) *ServeReport {
		srv := NewServer(EngineConfig{Shards: shards}, ServeConfig{CheckpointPath: path})
		rep, err := srv.Serve(context.Background(), netio.NewLoopSource(tr.Packets[half:], 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold := second("", 2)
	// Restore into a different shard count than the checkpoint was taken
	// at: entries re-route by client hash.
	warm := second(ckpt, 3)
	if warm.RestoredEntries != repA.CheckpointedEntries {
		t.Fatalf("restored %d entries, checkpoint held %d", warm.RestoredEntries, repA.CheckpointedEntries)
	}
	if warm.Stats.LabeledFlows <= cold.Stats.LabeledFlows {
		t.Fatalf("restored resolver labeled %d flows, cold start %d — restore had no effect",
			warm.Stats.LabeledFlows, cold.Stats.LabeledFlows)
	}
}

// TestServeCheckpointKeepsShardFIFO: the drain writes one snapshot per
// shard, merged by response time. On a time-ordered trace that is byte for
// byte the file the stable sort of their concatenation gave. When a
// shard's capture clock steps back, each shard's entries still appear in
// its own Snapshot order, where the sort would reorder them, and a restore
// at the same shard count rebuilds every shard's Clist as it was.
func TestServeCheckpointKeepsShardFIFO(t *testing.T) {
	// drain serves pkts at the given shard count, then returns the
	// checkpoint it wrote and each shard's Snapshot at the drain.
	drain := func(pkts []netio.Packet, shards int, path string) ([]byte, [][]resolver.SnapshotEntry) {
		t.Helper()
		srv := NewServer(EngineConfig{Shards: shards}, ServeConfig{CheckpointPath: path})
		rep, err := srv.Serve(context.Background(), netio.NewLoopSource(pkts, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		snaps := make([][]resolver.SnapshotEntry, len(srv.pipes))
		n := 0
		for i, h := range srv.pipes {
			snaps[i] = h.Resolver().Snapshot()
			n += len(snaps[i])
		}
		if rep.CheckpointedEntries != n {
			t.Fatalf("report counts %d checkpointed entries, the shards hold %d", rep.CheckpointedEntries, n)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data, snaps
	}
	// stableSorted is the checkpoint as the drain used to build it: the
	// shards' snapshots concatenated, then stable-sorted by At.
	stableSorted := func(snaps [][]resolver.SnapshotEntry) []byte {
		var all []resolver.SnapshotEntry
		for _, s := range snaps {
			all = append(all, s...)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
		var buf bytes.Buffer
		if err := resolver.WriteSnapshot(&buf, all); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	byAt := func(a, b resolver.SnapshotEntry) int { return cmp.Compare(a.At, b.At) }
	tr := synth.Generate(synth.QuickScenario(37))

	for _, shards := range []int{2, 3} {
		data, snaps := drain(tr.Packets, shards, filepath.Join(t.TempDir(), "clist.ckpt"))
		for i, s := range snaps {
			if len(s) == 0 || !slices.IsSortedFunc(s, byAt) {
				t.Fatalf("shards=%d: shard %d's snapshot is empty or out of time order", shards, i)
			}
		}
		if !bytes.Equal(data, stableSorted(snaps)) {
			t.Errorf("shards=%d: checkpoint differs from the stable-sorted concatenation", shards)
		}
	}

	// Step one late DNS response back before the ten responses ahead of it.
	pkts := slices.Clone(tr.Packets)
	var dns []int
	var p layers.Parser
	for i, pkt := range pkts {
		if d, err := p.Parse(pkt.Data); err == nil && d.HasUDP && d.SrcPort == 53 {
			dns = append(dns, i)
		}
	}
	if len(dns) < 20 {
		t.Fatalf("trace carries %d DNS responses, want at least 20", len(dns))
	}
	stepped := dns[len(dns)-5]
	pkts[stepped].Timestamp = pkts[dns[len(dns)-15]].Timestamp - time.Millisecond

	const shards = 2
	path := filepath.Join(t.TempDir(), "clist.ckpt")
	data, snaps := drain(pkts, shards, path)
	if slices.IndexFunc(snaps, func(s []resolver.SnapshotEntry) bool { return !slices.IsSortedFunc(s, byAt) }) < 0 {
		t.Fatal("no shard's snapshot steps back in time: the test lost its backward clock")
	}
	if bytes.Equal(data, stableSorted(snaps)) {
		t.Fatal("the stable sort keeps this trace's order: the test no longer tells the two apart")
	}
	written, err := resolver.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([][]resolver.SnapshotEntry, shards)
	for _, se := range written {
		i := shardOfAddr(se.Client, shards)
		perShard[i] = append(perShard[i], se)
	}
	for i := range snaps {
		if !reflect.DeepEqual(perShard[i], snaps[i]) {
			t.Errorf("shard %d's entries are out of its Snapshot order in the checkpoint", i)
		}
	}
	_, restored := drain(nil, shards, path)
	for i := range snaps {
		if !reflect.DeepEqual(restored[i], snaps[i]) {
			t.Errorf("shard %d restored a different Clist", i)
		}
	}
}

// TestServeSheddingDropsInsteadOfBlocking: with shedding on and a stalled
// shard, the dispatcher must drop (and count) rather than stall; the run
// must still complete and report the drops.
func TestServeSheddingDropsInsteadOfBlocking(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(41))
	slow := &FuncSink{Tag: func(TagEvent) { time.Sleep(50 * time.Microsecond) }}
	srv := NewServer(EngineConfig{Shards: 2, batch: 4, Sink: slow}, ServeConfig{Shed: true})
	rep, err := srv.Serve(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Dropped
	if d.Flows+d.DNS == 0 {
		t.Fatal("stalled shard shed nothing; expected drops with a 4-entry batch and a slow sink")
	}
	per := srv.Metrics().Shed.PerShard()
	if len(per) != 2 {
		t.Fatalf("per-shard drop accounting has %d shards, want 2", len(per))
	}
	var sum uint64
	for _, sh := range per {
		sum += sh.Flows + sh.DNS
	}
	if sum != d.Flows+d.DNS {
		t.Fatalf("per-shard drops sum %d != totals %d", sum, d.Flows+d.DNS)
	}
	if rep.Stats.Flows == 0 {
		t.Fatal("shedding run emitted no flows at all")
	}
}

// TestServeMetricsLive: the metrics view must reflect a finished run.
func TestServeMetricsLive(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(43))
	srv := NewServer(EngineConfig{Shards: 2}, ServeConfig{Window: 10 * time.Minute})
	rep, err := srv.Serve(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	val := func(name string) uint64 { return uint64(metricValue(t, m, name)) }
	if m.Packets() == 0 || val("bytes_total") == 0 {
		t.Fatalf("packets=%d bytes=%d", m.Packets(), val("bytes_total"))
	}
	if m.Packets() != rep.Packets || val("bytes_total") != rep.Bytes {
		t.Fatalf("report (%d,%d) != metrics (%d,%d)", rep.Packets, rep.Bytes, m.Packets(), val("bytes_total"))
	}
	if metricValue(t, m, "trace_clock_seconds") <= 0 {
		t.Fatal("trace clock never advanced")
	}
	if val("flows_total") != rep.Stats.Flows || val("dns_responses_total") != rep.Stats.DNSResponses {
		t.Fatalf("metrics flows/dns (%d,%d) != stats (%d,%d)",
			val("flows_total"), val("dns_responses_total"), rep.Stats.Flows, rep.Stats.DNSResponses)
	}
	if val("tags_total") == 0 {
		t.Fatal("no tag events counted")
	}
	if got := m.RingDepths(); len(got) != 2 {
		t.Fatalf("ring depth gauges: %d, want 2", len(got))
	}
	if val("windows_flushed_total") != rep.Windows || rep.Windows == 0 {
		t.Fatalf("windows: metrics %d, report %d", val("windows_flushed_total"), rep.Windows)
	}
}
