package core

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netio"
	"repro/internal/synth"
)

// transientTestErr is a locally marked transient error (the same
// Transient() bool convention the fault harness's Transient uses; that
// harness lives in the external core_test package, which these internal
// tests cannot see).
type transientTestErr struct{ msg string }

func (e transientTestErr) Error() string   { return e.msg }
func (e transientTestErr) Transient() bool { return true }

// flakySource replays pkts but injects err before delivering the packet
// at each index in failAt (value = how many consecutive failures there).
type flakySource struct {
	pkts   []netio.Packet
	failAt map[int]int
	err    error
	i      int
}

func (f *flakySource) Next() (netio.Packet, error) {
	if f.i >= len(f.pkts) {
		return netio.Packet{}, io.EOF
	}
	if n := f.failAt[f.i]; n > 0 {
		f.failAt[f.i] = n - 1
		return netio.Packet{}, f.err
	}
	p := f.pkts[f.i]
	f.i++
	return p, nil
}

// testPolicy is a fast-backoff policy for tests.
func testPolicy(budget int) *RestartPolicy {
	return &RestartPolicy{MaxRestarts: budget, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 7}
}

// TestServeSupervisorRecovers: transient mid-stream source errors are
// absorbed by restarts — every packet is still delivered, the restarts
// are counted, and the run ends degraded but successful.
func TestServeSupervisorRecovers(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(51))
	src := &flakySource{
		pkts:   tr.Packets,
		failAt: map[int]int{10: 1, 200: 2, 500: 1},
		err:    transientTestErr{msg: "exporter hiccup"},
	}
	srv := NewServer(EngineConfig{}, ServeConfig{Window: time.Minute, DrainTimeout: 10 * time.Second, Restart: testPolicy(10)})
	rep, err := srv.Serve(context.Background(), src)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got, want := rep.Packets, uint64(len(tr.Packets)); got != want {
		t.Errorf("delivered %d packets, want %d (restarts must not lose input)", got, want)
	}
	if rep.SourceRestarts != 4 {
		t.Errorf("SourceRestarts = %d, want 4", rep.SourceRestarts)
	}
	tn := metricValue(t, srv.Metrics(), "fault_source_errors_total", "transient")
	fat := metricValue(t, srv.Metrics(), "fault_source_errors_total", "fatal")
	if tn != 4 || fat != 0 {
		t.Errorf("source errors = (%v, %v), want (4, 0)", tn, fat)
	}
	if !srv.Metrics().Degraded() {
		t.Error("run with restarts not marked degraded")
	}
	total := metricValue(t, srv.Metrics(), "fault_error_budget_total")
	rem := metricValue(t, srv.Metrics(), "fault_error_budget_remaining")
	if total != 10 || rem != 6 {
		t.Errorf("error budget = (%v, %v), want (10, 6)", total, rem)
	}
}

// TestServeSupervisorFatal: an unclassified error is fatal — no restart,
// the run fails with the cause.
func TestServeSupervisorFatal(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(52))
	cause := errors.New("capture descriptor closed")
	src := &flakySource{pkts: tr.Packets, failAt: map[int]int{50: 1}, err: cause}
	srv := NewServer(EngineConfig{}, ServeConfig{Window: time.Minute, DrainTimeout: 10 * time.Second, Restart: testPolicy(10)})
	if _, err := srv.Serve(context.Background(), src); !errors.Is(err, cause) {
		t.Fatalf("Serve = %v, want the fatal cause", err)
	}
	tn := metricValue(t, srv.Metrics(), "fault_source_errors_total", "transient")
	fat := metricValue(t, srv.Metrics(), "fault_source_errors_total", "fatal")
	if tn != 0 || fat != 1 {
		t.Errorf("source errors = (%v, %v), want (0, 1)", tn, fat)
	}
	if metricValue(t, srv.Metrics(), "fault_source_restarts_total") != 0 {
		t.Errorf("restarted on a fatal error")
	}
}

// TestServeSupervisorBudget: transient failures past the error budget
// become fatal.
func TestServeSupervisorBudget(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(53))
	src := &flakySource{
		pkts:   tr.Packets,
		failAt: map[int]int{100: 5},
		err:    transientTestErr{msg: "exporter flapping"},
	}
	srv := NewServer(EngineConfig{}, ServeConfig{Window: time.Minute, DrainTimeout: 10 * time.Second, Restart: testPolicy(2)})
	_, err := srv.Serve(context.Background(), src)
	if err == nil || !strings.Contains(err.Error(), "budget exhausted") {
		t.Fatalf("Serve = %v, want budget-exhausted error", err)
	}
	if got := metricValue(t, srv.Metrics(), "fault_source_restarts_total"); got != 2 {
		t.Errorf("source restarts = %v, want the full budget of 2", got)
	}
	if rem := metricValue(t, srv.Metrics(), "fault_error_budget_remaining"); rem != 0 {
		t.Errorf("remaining budget = %v, want 0", rem)
	}
}

// partialErrSource replays pkts in reads of up to len(dst) packets and
// returns err together with the last packets before cut: a partial block,
// then the error. It reports a read past the error, which only a restart
// makes.
type partialErrSource struct {
	t    *testing.T
	pkts []netio.Packet
	cut  int
	err  error
	next int
}

func (s *partialErrSource) ReadBlock(dst []netio.Packet) (int, error) {
	if s.next == s.cut {
		s.t.Error("source read again after its error")
		return 0, io.EOF
	}
	n := copy(dst, s.pkts[s.next:s.cut])
	s.next += n
	if s.next == s.cut {
		return n, s.err
	}
	return n, nil
}

func (s *partialErrSource) Next() (netio.Packet, error) {
	var one [1]netio.Packet
	_, err := s.ReadBlock(one[:])
	return one[0], err
}

// TestServeUnsupervisedSourceError: without a RestartPolicy a source error
// ends Serve with that error, as it would end a batch Run. The packets read
// with it are still delivered and counted, and nothing is counted as a
// fault or a restart.
func TestServeUnsupervisedSourceError(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(54))
	const cut = 2*blockLen + 88 // the error arrives with a partial third block
	dnsOver := func(pkts []netio.Packet) int {
		n := 0
		sink := &FuncSink{DNS: func(DNSEvent) { n++ }}
		if _, err := NewEngine(EngineConfig{Sink: sink}).Run(context.Background(), netio.NewLoopSource(pkts, 0, 1)); err != nil {
			t.Fatal(err)
		}
		return n
	}
	want := dnsOver(tr.Packets[:cut])
	if want == dnsOver(tr.Packets[:2*blockLen]) {
		t.Fatal("no DNS response in the partial block: the delivery check would be vacuous")
	}

	cause := transientTestErr{msg: "exporter hiccup"}
	dns := 0
	srv := NewServer(EngineConfig{Sink: &FuncSink{DNS: func(DNSEvent) { dns++ }}},
		ServeConfig{Window: time.Minute, DrainTimeout: 10 * time.Second})
	_, err := srv.Serve(context.Background(), &partialErrSource{t: t, pkts: tr.Packets, cut: cut, err: cause})
	if !errors.Is(err, cause) {
		t.Fatalf("Serve = %v, want the source error", err)
	}
	m := srv.Metrics()
	if got := m.Packets(); got != cut {
		t.Errorf("counted %d packets, want the %d read before the error", got, cut)
	}
	if dns != want {
		t.Errorf("%d DNS responses delivered, want %d: packets read with the error were lost", dns, want)
	}
	tn := metricValue(t, m, "fault_source_errors_total", "transient")
	fat := metricValue(t, m, "fault_source_errors_total", "fatal")
	if tn != 0 || fat != 0 {
		t.Errorf("source errors = (%v, %v), want none counted without supervision", tn, fat)
	}
	if got := metricValue(t, m, "fault_source_restarts_total"); got != 0 {
		t.Errorf("source restarts = %v, want 0", got)
	}
	if m.Degraded() {
		t.Error("unsupervised run marked degraded")
	}
}

// TestServeFreshStartOnCorruptCheckpoint: an invalid checkpoint file
// yields a counted, reported fresh start — not a failed startup — and a
// clean drain rewrites it so the next run restores normally.
func TestServeFreshStartOnCorruptCheckpoint(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(55))
	path := filepath.Join(t.TempDir(), "clist.ckpt")
	if err := os.WriteFile(path, []byte("DNHCLIST\x02 definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	scfg := ServeConfig{Window: time.Minute, DrainTimeout: 10 * time.Second, CheckpointPath: path}
	srv := NewServer(EngineConfig{}, scfg)
	rep, err := srv.Serve(context.Background(), netio.NewLoopSource(tr.Packets, 0, 1))
	if err != nil {
		t.Fatalf("Serve with corrupt checkpoint: %v", err)
	}
	if rep.FreshStart == "" {
		t.Error("ServeReport.FreshStart empty after a rejected checkpoint")
	}
	if rep.RestoredEntries != 0 {
		t.Errorf("restored %d entries from a corrupt checkpoint", rep.RestoredEntries)
	}
	if got := metricValue(t, srv.Metrics(), "fault_checkpoint_fresh_starts_total"); got != 1 {
		t.Errorf("checkpoint fresh starts = %v, want 1", got)
	}
	if !srv.Metrics().Degraded() {
		t.Error("fresh start not marked degraded")
	}
	if rep.CheckpointedEntries == 0 {
		t.Fatal("drain wrote no checkpoint to recover with")
	}
	// The rewritten checkpoint heals the next run.
	srv2 := NewServer(EngineConfig{}, scfg)
	rep2, err := srv2.Serve(context.Background(), netio.NewLoopSource(tr.Packets, 0, 1))
	if err != nil {
		t.Fatalf("second Serve: %v", err)
	}
	if rep2.FreshStart != "" {
		t.Errorf("second run rejected the rewritten checkpoint: %s", rep2.FreshStart)
	}
	if rep2.RestoredEntries == 0 {
		t.Error("second run restored nothing from the rewritten checkpoint")
	}
}
