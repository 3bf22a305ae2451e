package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/netio"
	"repro/internal/synth"
)

// runEngine runs one trace through an Engine with the given shard count.
func runEngine(t *testing.T, tr *synth.Trace, shards int) *Result {
	t.Helper()
	eng := NewEngine(EngineConfig{Shards: shards, Truth: tr.TruthFunc()})
	res, err := eng.Run(context.Background(), tr.Source())
	if err != nil {
		t.Fatalf("Engine.Run(shards=%d): %v", shards, err)
	}
	return res
}

// synthClientNets covers the synthetic scenarios' client population
// (clients and LDNS live in 10.0.0.0/16; servers and P2P peers do not).
func synthClientNets() []netip.Prefix {
	return []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
}

// flowMultiset renders every labeled flow to a canonical string and counts
// occurrences, so shard orderings can be compared as sets.
func flowMultiset(db *flowdb.DB) map[string]int {
	m := make(map[string]int, db.Len())
	for _, f := range db.All() {
		m[fmt.Sprintf("%+v", f)]++
	}
	return m
}

func diffMultisets(t *testing.T, want, got map[string]int, label string) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: flow %q: want %d, got %d", label, k, n, got[k])
			return
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Errorf("%s: extra flow %q x%d", label, k, n)
			return
		}
	}
}

// TestEngineShardEquivalence is the core guarantee of the sharded design:
// any shard count produces the identical flow set and identical aggregate
// statistics as the deterministic single-threaded pipeline.
func TestEngineShardEquivalence(t *testing.T) {
	traces := map[string]*synth.Trace{
		"quick":    synth.Generate(synth.QuickScenario(7)),
		"EU1-FTTH": synth.Generate(synth.NamedScenario(synth.NameEU1FTTH, 0.12, 3)),
		"US-3G":    synth.Generate(synth.NamedScenario(synth.NameUS3G, 0.12, 5)),
	}
	for name, tr := range traces {
		t.Run(name, func(t *testing.T) {
			single := runEngine(t, tr, 1)
			want := flowMultiset(single.DB)
			for _, shards := range []int{2, 3, 8} {
				got := runEngine(t, tr, shards)
				if got.Stats != single.Stats {
					t.Errorf("shards=%d stats diverge:\n single %+v\n sharded %+v",
						shards, single.Stats, got.Stats)
				}
				if got.DB.Len() != single.DB.Len() {
					t.Errorf("shards=%d: %d flows vs %d", shards, got.DB.Len(), single.DB.Len())
				}
				diffMultisets(t, want, flowMultiset(got.DB), fmt.Sprintf("shards=%d", shards))
			}
		})
	}
}

// TestEngineSingleMatchesLegacy pins the shard-1 engine to a bare
// HandlePacket loop over one DNHunter, byte for byte.
func TestEngineSingleMatchesLegacy(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(11))
	h := New(Config{Truth: tr.TruthFunc()})
	feed(t, h, tr.Source())
	legacyStats := h.Stats()

	res := runEngine(t, tr, 1)
	if res.Stats != legacyStats {
		t.Errorf("stats diverge:\n legacy %+v\n engine %+v", legacyStats, res.Stats)
	}
	diffMultisets(t, flowMultiset(h.DB()), flowMultiset(res.DB), "engine-vs-legacy")
	var legacyCSV, engineCSV bytes.Buffer
	if err := h.DB().WriteCSV(&legacyCSV); err != nil {
		t.Fatal(err)
	}
	if err := res.DB.WriteCSV(&engineCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacyCSV.Bytes(), engineCSV.Bytes()) {
		t.Error("engine CSV differs from the HandlePacket loop's")
	}
}

// TestEnginePcapSourceSharded exercises the payload-copy path: the pcap
// reader reuses its buffer on every Next, so the dispatcher must hand each
// shard stable copies.
func TestEnginePcapSourceSharded(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(13))
	var buf bytes.Buffer
	w := netio.NewWriter(&buf)
	for _, p := range tr.Packets {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := netio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Shards: 4})
	fromPcap, err := eng.Run(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewEngine(EngineConfig{Shards: 4}).Run(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if fromPcap.Stats != direct.Stats {
		t.Errorf("pcap path diverges:\n pcap %+v\n mem  %+v", fromPcap.Stats, direct.Stats)
	}
}

// countingSink tallies every event; the Engine serializes calls, so plain
// ints suffice even with 8 shards under -race.
type countingSink struct {
	tags, dns, flowEvents int
	closed                int
	closeErr              error
}

func (s *countingSink) OnTag(TagEvent)            { s.tags++ }
func (s *countingSink) OnDNSResponse(DNSEvent)    { s.dns++ }
func (s *countingSink) OnFlow(flowdb.LabeledFlow) { s.flowEvents++ }
func (s *countingSink) Close() error              { s.closed++; return s.closeErr }

// TestEngineSinkContract checks the Sink sees every event exactly once and
// Close fires exactly once, for both execution modes. Running with 8 shards
// under -race is the concurrency exercise for the dispatcher/worker paths.
func TestEngineSinkContract(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(17))
	for _, shards := range []int{1, 8} {
		sink := &countingSink{}
		eng := NewEngine(EngineConfig{Shards: shards, Sink: sink})
		res, err := eng.Run(context.Background(), tr.Source())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if sink.closed != 1 {
			t.Errorf("shards=%d: Close ran %d times", shards, sink.closed)
		}
		if uint64(sink.dns) != res.Stats.DNSResponses {
			t.Errorf("shards=%d: %d DNS events vs %d responses", shards, sink.dns, res.Stats.DNSResponses)
		}
		if uint64(sink.flowEvents) != res.Stats.Flows {
			t.Errorf("shards=%d: %d flow events vs %d flows", shards, sink.flowEvents, res.Stats.Flows)
		}
		if uint64(sink.tags) != res.Stats.Table.FlowsCreated {
			t.Errorf("shards=%d: %d tag events vs %d flows created", shards, sink.tags, res.Stats.Table.FlowsCreated)
		}
	}
}

// TestEngineSinkCloseError: a failing sink surfaces as a run error.
func TestEngineSinkCloseError(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(19))
	sink := &countingSink{closeErr: errors.New("disk full")}
	_, err := NewEngine(EngineConfig{Sink: sink}).Run(context.Background(), tr.Source())
	if err == nil || !errors.Is(err, sink.closeErr) {
		t.Fatalf("err = %v, want wrapped close error", err)
	}
}

// endlessSource replays its packets forever; only cancellation stops it.
type endlessSource struct {
	pkts []netio.Packet
	i    int
}

func (s *endlessSource) Next() (netio.Packet, error) {
	p := s.pkts[s.i%len(s.pkts)]
	s.i++
	return p, nil
}

func TestEngineContextCancel(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(23))
	for _, shards := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		sink := &countingSink{}
		eng := NewEngine(EngineConfig{Shards: shards, Sink: sink})
		_, err := eng.Run(ctx, &endlessSource{pkts: tr.Packets})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shards=%d: err = %v, want deadline exceeded", shards, err)
		}
		if sink.closed != 1 {
			t.Errorf("shards=%d: Close ran %d times after cancel", shards, sink.closed)
		}
	}
}

// failingSource returns an error mid-stream.
type failingSource struct {
	pkts []netio.Packet
	i    int
	err  error
}

func (s *failingSource) Next() (netio.Packet, error) {
	if s.i >= len(s.pkts) {
		return netio.Packet{}, s.err
	}
	p := s.pkts[s.i]
	s.i++
	return p, nil
}

func TestEngineSourceError(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(29))
	srcErr := errors.New("ring buffer overrun")
	for _, shards := range []int{1, 4} {
		src := &failingSource{pkts: tr.Packets[:100], err: srcErr}
		_, err := NewEngine(EngineConfig{Shards: shards}).Run(context.Background(), src)
		if !errors.Is(err, srcErr) {
			t.Fatalf("shards=%d: err = %v, want source error", shards, err)
		}
	}
}

// TestEngineDNSOddPortRouting pins the dispatcher's response routing to
// handleDNS's attribution rule (client = DstIP, unconditionally): a DNS
// response sent from an ephemeral source port TO port 53 must still land
// on the destination client's shard, or its resolver entry would be
// invisible to that client's flows.
func TestEngineDNSOddPortRouting(t *testing.T) {
	tb := &traceBuilder{t: t}
	// Response travels ldns:9999 -> clientA:53 — both the "non-53 end" and
	// the "source is the server" heuristics would misattribute it.
	var recs []dnswire.Record
	recs = append(recs, dnswire.Record{Name: "odd.example.com", Type: dnswire.TypeA, TTL: 60, Addr: srv1})
	msg := dnswire.NewResponse(99, "odd.example.com", dnswire.TypeA, recs)
	raw, err := msg.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, ferr := tb.b.UDPFrame(ldns, clientA, 9999, 53, raw)
	tb.add(0, frame, ferr)
	tb.httpFlow(10*time.Millisecond, clientA, srv1, 40000, "odd.example.com")

	for _, shards := range []int{1, 8} {
		res, err := NewEngine(EngineConfig{Shards: shards}).Run(
			context.Background(), netio.NewLoopSource(tb.pkts, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.LabeledFlows != 1 {
			t.Errorf("shards=%d: labeled %d flows, want 1 (response misrouted?)",
				shards, res.Stats.LabeledFlows)
		}
	}
}

// TestEngineOwnsFlowsPlumbing: user-supplied OnRecord/DisableAutoSweep in
// the flows config must not leak through — results stay shard-count
// independent and flows are observed via the Sink only.
func TestEngineOwnsFlowsPlumbing(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(37))
	leaked := 0
	fcfg := flows.Config{
		DisableAutoSweep: true,
		OnRecord:         func(flows.Record, flows.Handle) { leaked++ },
	}
	single, err := NewEngine(EngineConfig{Flows: fcfg}).Run(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewEngine(EngineConfig{Flows: fcfg, Shards: 4}).Run(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if leaked != 0 {
		t.Errorf("user OnRecord fired %d times; engine owns record plumbing", leaked)
	}
	if single.Stats != sharded.Stats {
		t.Errorf("flows config leaks shard-dependent behaviour:\n 1: %+v\n 4: %+v",
			single.Stats, sharded.Stats)
	}
}

// TestEngineReusable: one Engine value runs multiple traces independently.
func TestEngineReusable(t *testing.T) {
	eng := NewEngine(EngineConfig{Shards: 2})
	a, err := eng.Run(context.Background(), synth.Generate(synth.QuickScenario(31)).Source())
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(context.Background(), synth.Generate(synth.QuickScenario(31)).Source())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats || a.DB.Len() != b.DB.Len() {
		t.Fatalf("engine reuse not independent: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestEngineReaderStats checks the dispatcher's counters: a sharded batch
// run reports exactly one ReaderStat, whose frame count is the trace
// length, and — since batch runs never shed — no shed frames.
func TestEngineReaderStats(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(11))
	res := runEngine(t, tr, 2)
	if len(res.Readers) != 1 {
		t.Fatalf("got %d ReaderStats, want 1", len(res.Readers))
	}
	rs := res.Readers[0]
	if want := uint64(len(tr.Packets)); rs.Pkts != want {
		t.Errorf("dispatcher read %d frames, want %d", rs.Pkts, want)
	}
	if rs.ShedFrames != 0 {
		t.Errorf("shed %d frames in a non-shedding batch run", rs.ShedFrames)
	}
}

// TestFastRangeReduction pins the multiply-shift reduction: in-range,
// deterministic, and reasonably uniform over the synthetic client
// population. Aggregate equivalence across shard counts — the property the
// pipeline actually needs, independent of WHERE each client lands — is
// pinned by TestEngineShardEquivalence.
func TestFastRangeReduction(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	const clients = 1 << 12
	for i := 0; i < clients; i++ {
		a := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		sh := shardOfAddr(a, n)
		if sh >= n {
			t.Fatalf("client %v: out of range shard=%d", a, sh)
		}
		if sh != shardOfAddr(a, n) {
			t.Fatalf("client %v: nondeterministic reduction", a)
		}
		counts[sh]++
	}
	ideal := float64(clients) / n
	for i, got := range counts {
		if math.Abs(float64(got)-ideal) > ideal/2 {
			t.Errorf("shard %d: %d clients, want ~%.0f (skew > 50%%)", i, got, ideal)
		}
	}
}
