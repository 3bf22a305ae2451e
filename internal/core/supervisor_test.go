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
	tn, fat := srv.Metrics().SourceErrors()
	if tn != 4 || fat != 0 {
		t.Errorf("SourceErrors = (%d, %d), want (4, 0)", tn, fat)
	}
	if !srv.Metrics().Degraded() {
		t.Error("run with restarts not marked degraded")
	}
	if total, rem := srv.Metrics().RestartBudget(); total != 10 || rem != 6 {
		t.Errorf("RestartBudget = (%d, %d), want (10, 6)", total, rem)
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
	tn, fat := srv.Metrics().SourceErrors()
	if tn != 0 || fat != 1 {
		t.Errorf("SourceErrors = (%d, %d), want (0, 1)", tn, fat)
	}
	if srv.Metrics().SourceRestarts() != 0 {
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
	if got := srv.Metrics().SourceRestarts(); got != 2 {
		t.Errorf("SourceRestarts = %d, want the full budget of 2", got)
	}
	if _, rem := srv.Metrics().RestartBudget(); rem != 0 {
		t.Errorf("remaining budget = %d, want 0", rem)
	}
}

// TestServeSupervisorReopen: the policy's Reopen hook replaces the source
// after a transient failure — the model for reconnecting to an exporter
// that died rather than hiccuped.
func TestServeSupervisorReopen(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(54))
	half := len(tr.Packets) / 2
	reopened := 0
	pol := testPolicy(3)
	pol.Reopen = func() (netio.PacketSource, error) {
		reopened++
		// The replacement feed resumes from where the first one died.
		return &flakySource{pkts: tr.Packets[half:]}, nil
	}
	// The original feed delivers the first half, then dies (an error, not
	// a clean EOF), so the supervisor reopens.
	srv := NewServer(EngineConfig{}, ServeConfig{Window: time.Minute, DrainTimeout: 10 * time.Second, Restart: pol})
	srcDying := &dyingSource{pkts: tr.Packets[:half], err: transientTestErr{msg: "feed died"}}
	rep, err := srv.Serve(context.Background(), srcDying)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if reopened != 1 {
		t.Errorf("Reopen called %d times, want 1", reopened)
	}
	if got, want := rep.Packets, uint64(len(tr.Packets)); got != want {
		t.Errorf("delivered %d packets, want %d across the reopen", got, want)
	}
}

// dyingSource yields pkts then fails with err forever (never a clean EOF).
type dyingSource struct {
	pkts []netio.Packet
	err  error
	i    int
}

func (d *dyingSource) Next() (netio.Packet, error) {
	if d.i >= len(d.pkts) {
		return netio.Packet{}, d.err
	}
	p := d.pkts[d.i]
	d.i++
	return p, nil
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
	if got := srv.Metrics().CheckpointFreshStarts(); got != 1 {
		t.Errorf("CheckpointFreshStarts = %d, want 1", got)
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
