package core

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/flowdb"
	"repro/internal/netio"
	"repro/internal/resolver"
	"repro/internal/synth"
)

// partialErrSource replays pkts in reads of up to len(dst) packets and
// returns err together with the last packets before cut: a partial block,
// then the error. A read past the error is a test failure: serve mode ends
// the stream at the first source error.
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

// TestServeUnsupervisedSourceError: a source error ends the stream the way
// the drain signal does. The packets read with it are still delivered and
// counted, the final window is flushed, the checkpoint is written, and
// Serve returns the report together with the error.
func TestServeUnsupervisedSourceError(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(54))
	// The error arrives with a partial third block, whose last packets fall
	// in a window only the close path flushes.
	const cut = 2*blockLen + 138
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

	cause := errors.New("exporter hiccup")
	dns := 0
	var last flowdb.Window
	path := filepath.Join(t.TempDir(), "clist.ckpt")
	srv := NewServer(EngineConfig{Sink: &FuncSink{DNS: func(DNSEvent) { dns++ }}},
		ServeConfig{Window: time.Minute, DrainTimeout: 10 * time.Second, CheckpointPath: path,
			FlushWindow: func(w flowdb.Window) error { last = w; return nil }})
	rep, err := srv.Serve(context.Background(), &partialErrSource{t: t, pkts: tr.Packets, cut: cut, err: cause})
	if !errors.Is(err, cause) {
		t.Fatalf("Serve = %v, want the source error", err)
	}
	if rep == nil {
		t.Fatal("Serve returned no report with the source error")
	}
	m := srv.Metrics()
	if got := m.Packets(); got != cut {
		t.Errorf("counted %d packets, want the %d read before the error", got, cut)
	}
	if dns != want {
		t.Errorf("%d DNS responses delivered, want %d: packets read with the error were lost", dns, want)
	}
	if at := tr.Packets[cut-1].Timestamp; rep.Windows == 0 || uint64(last.Index) != rep.Windows-1 || at < last.Start || at >= last.End {
		t.Errorf("final window [%v, %v) (index %d of %d) does not hold the last packet at %v",
			last.Start, last.End, last.Index, rep.Windows, at)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	defer f.Close()
	entries, err := resolver.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || len(entries) != rep.CheckpointedEntries {
		t.Errorf("checkpoint holds %d entries, report says %d", len(entries), rep.CheckpointedEntries)
	}
	if m.Degraded() {
		t.Error("source error marked the run degraded")
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
