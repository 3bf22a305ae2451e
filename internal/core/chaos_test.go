package core_test

// The chaos suite: every synthetic scenario is driven through the full
// serve pipeline under randomized-but-replayable fault schedules, and the
// run must end cleanly — no deadlock, a drain inside DrainTimeout, a
// balanced block pool, and (for prefix-cut faults) output byte-identical
// to an unfaulted run over the same prefix. Any failing seed replays
// exactly: CHAOS_SEED=<n> go test ./internal/core -run Randomized.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netio"
	"repro/internal/synth"
)

// chaosFaults derives a full fault configuration from one seed. Every
// schedule is keyed off the seed, so a (scenario, seed) pair replays the
// identical fault sequence.
func chaosFaults(seed uint64) faultSourceConfig {
	return faultSourceConfig{
		Err:         EveryP(0.01, seed),
		Stall:       EveryP(0.005, seed+1),
		StallFor:    200 * time.Microsecond,
		ShortBlock:  EveryP(0.05, seed+2),
		Truncate:    EveryP(0.002, seed+3),
		TruncateTo:  20,
		ClockBack:   EveryP(0.001, seed+4),
		ClockBackBy: 2 * time.Second,
		ClockSkew:   EveryP(0.001, seed+5),
		ClockSkewBy: 5 * time.Second,
	}
}

// chaosServe runs one scenario through serve mode under the seed's fault
// schedule and asserts the graceful-degradation invariants.
func chaosServe(t *testing.T, sc synth.Scenario, seed uint64) {
	t.Helper()
	tr := synth.Generate(sc)
	before := netio.DefaultBlockPool().Stats()

	src := newFaultSource(tr.Source(), chaosFaults(seed))
	sink := newFaultSink(nil, faultSinkConfig{
		Block:    EveryP(0.002, seed+6),
		BlockFor: 100 * time.Microsecond,
	})
	srv := core.NewServer(
		core.EngineConfig{Shards: 2, Sink: sink},
		core.ServeConfig{
			Window:       time.Minute,
			DrainTimeout: 10 * time.Second,
			Restart: &core.RestartPolicy{
				MaxRestarts: 1 << 20, // chaos wants recovery, not budget death
				BaseBackoff: time.Millisecond,
				MaxBackoff:  2 * time.Millisecond,
				Seed:        seed,
			},
		},
	)

	start := time.Now()
	rep, err := srv.Serve(context.Background(), src)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("seed %d: Serve = %v", seed, err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("seed %d: run took %v — drain bound not honored", seed, elapsed)
	}
	if rep.Packets == 0 {
		t.Fatalf("seed %d: no packets survived the fault schedule", seed)
	}

	after := netio.DefaultBlockPool().Stats()
	if dg, dr := after.Gets-before.Gets, after.Retired-before.Retired; dg != dr {
		t.Fatalf("seed %d: block pool leaked: %d gets vs %d retires", seed, dg, dr)
	}
}

// TestChaosPinnedCorpus is the CI corpus: every paper scenario plus the
// quick trace, each under a pinned fault seed. New failures here are
// regressions, not discoveries.
func TestChaosPinnedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos corpus is not -short")
	}
	t.Run("quick", func(t *testing.T) { chaosServe(t, synth.QuickScenario(1), 101) })
	for i, name := range synth.ScenarioNames {
		t.Run(name, func(t *testing.T) {
			chaosServe(t, synth.NamedScenario(name, 0.05, uint64(i+1)), uint64(200+i))
		})
	}
}

// TestChaosRandomized runs a short randomized matrix. The seed comes from
// CHAOS_SEED when set (replaying a CI failure) and the wall clock
// otherwise, and is always logged so a red run is reproducible.
func TestChaosRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not -short")
	}
	seed := uint64(time.Now().UnixNano())
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d", seed)
	for round := uint64(0); round < 3; round++ {
		chaosServe(t, synth.QuickScenario(seed+round), seed+round*1000)
	}
}

// TestChaosPrefixEquivalence: a mid-stream EOF fault At(N) must be
// indistinguishable from a capture that simply ended after N packets —
// same stats, byte-identical CSV.
func TestChaosPrefixEquivalence(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(21))
	cut := len(tr.Packets) / 2

	eng := func() *core.Engine { return core.NewEngine(core.EngineConfig{}) }
	faulted, err := eng().Run(context.Background(),
		newFaultSource(tr.Source(), faultSourceConfig{EOF: At(uint64(cut))}))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := eng().Run(context.Background(),
		netio.NewLoopSource(tr.Packets[:cut], 0, 1))
	if err != nil {
		t.Fatal(err)
	}

	if faulted.Stats != clean.Stats {
		t.Errorf("stats diverge:\nfaulted %+v\nclean   %+v", faulted.Stats, clean.Stats)
	}
	var fb, cb bytes.Buffer
	if err := faulted.DB.WriteCSV(&fb); err != nil {
		t.Fatal(err)
	}
	if err := clean.DB.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Bytes(), cb.Bytes()) {
		t.Error("CSV output diverges between the EOF fault and the true prefix")
	}
}

// TestChaosCheckpointCorruption: seeded corruption of a real checkpoint
// file must always yield a counted fresh start, never a crash or a silent
// restore of damaged state.
func TestChaosCheckpointCorruption(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(22))
	path := filepath.Join(t.TempDir(), "clist.ckpt")
	scfg := core.ServeConfig{Window: time.Minute, DrainTimeout: 10 * time.Second, CheckpointPath: path}

	// Write a genuine checkpoint once.
	if _, err := core.NewServer(core.EngineConfig{}, scfg).Serve(
		context.Background(), tr.Source()); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func([]byte) []byte{
		"bitflip":   func(b []byte) []byte { return FlipBit(b, 7) },
		"truncated": func(b []byte) []byte { return TruncateTail(b, len(b)/2) },
		"future":    func(b []byte) []byte { return SetByte(b, 8, 0x7f) },
	}
	for name, transform := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := CorruptFile(path, transform); err != nil {
				t.Fatal(err)
			}
			srv := core.NewServer(core.EngineConfig{}, scfg)
			rep, err := srv.Serve(context.Background(), tr.Source())
			if err != nil {
				t.Fatalf("Serve over corrupt checkpoint: %v", err)
			}
			if rep.FreshStart == "" || rep.RestoredEntries != 0 {
				t.Fatalf("corruption not answered by a fresh start: %+v", rep)
			}
			if !srv.Metrics().Degraded() {
				t.Error("fresh start did not mark the run degraded")
			}
		})
	}
}
