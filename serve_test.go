package dnhunter_test

import (
	"bytes"
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	dnhunter "repro"
)

// TestServeSoakHeapBounded streams a looped trace through Serve long
// enough for many window rotations and asserts heap-in-use stays under a
// fixed ceiling: the windowed store recycles its memory instead of
// accumulating flows, so sustained streaming must reach a steady state.
// The full standard analytics pipeline rides along on the Observe hook —
// sketch state is bounded by construction, and this is where a
// regression (an unbounded map in a query) would show up first.
func TestServeSoakHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	tr := dnhunter.GenerateQuickTrace(3)
	// 300 passes × 30 min of trace with 10-minute windows: ~1.1M packets
	// and ~900 window rotations of sustained streaming.
	loop := dnhunter.NewLoopSource(tr.Packets, 0, 300)

	var samples []uint64
	windows := 0
	// A small Clist reaches its (by-design bounded) capacity within the
	// warmup; the default 1M-entry list would keep absorbing responses —
	// and growing — for the whole soak.
	eng := dnhunter.NewEngine(dnhunter.WithResolver(dnhunter.ResolverConfig{ClistSize: 4096}))
	pipe := dnhunter.NewAnalyticsPipeline(dnhunter.StreamingQueries(nil)...)
	rep, err := eng.Server(dnhunter.ServeConfig{
		Window:        10 * time.Minute,
		ObserveWindow: pipe.ObserveWindow,
		FlushWindow: func(w dnhunter.Window) error {
			// Sample every tenth rotation, on the serving goroutine, after
			// the window's memory has been handed back for reuse.
			if windows++; windows%10 != 0 {
				return nil
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			samples = append(samples, ms.HeapInuse)
			return nil
		},
	}).Serve(context.Background(), loop)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows < 3 {
		t.Fatalf("soak rotated %d windows, want >= 3", rep.Windows)
	}
	if len(samples) < 6 {
		t.Fatalf("sampled heap %d times, want >= 6", len(samples))
	}
	// Fixed ceiling: 3× the warmup watermark. Span fragmentation creeps a
	// few KB per rotation with a decaying slope (observed ~4 MB → ~7 MB
	// over 900 rotations); a genuine leak — flows accumulating anywhere —
	// grows linearly with the stream and blows through 3× within the
	// first third of the soak.
	var ceiling uint64
	for _, s := range samples[:3] {
		if s > ceiling {
			ceiling = s
		}
	}
	ceiling *= 3
	for i, s := range samples[3:] {
		if s > ceiling {
			t.Fatalf("heap sample %d = %d bytes exceeds steady-state ceiling %d (warmup %v)",
				i+3, s, ceiling, samples[:3])
		}
	}
	// The pipeline must have seen every finished flow, not a sample.
	if got := pipe.Observed(); got != rep.Stats.Flows {
		t.Fatalf("analytics observed %d flows, serve reported %d", got, rep.Stats.Flows)
	}
	for _, qr := range pipe.Snapshot() {
		if qr.Result == nil {
			t.Fatalf("query %s snapshot is nil after soak", qr.Name)
		}
	}
}

// TestServeWindowsByteMatchBatch asserts the CSV concatenation of all
// flushed windows is byte-identical to the CSV of an equivalent batch
// run: windowing partitions the emission stream, it never reorders or
// rewrites it.
func TestServeWindowsByteMatchBatch(t *testing.T) {
	tr := dnhunter.GenerateQuickTrace(5)

	eng := dnhunter.NewEngine(dnhunter.WithTruth(tr.TruthFunc()))
	batch, err := eng.Run(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := batch.DB.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	_, err = eng.Server(dnhunter.ServeConfig{
		Window: 5 * time.Minute,
		FlushWindow: func(w dnhunter.Window) error {
			var buf bytes.Buffer
			if err := w.DB.WriteCSV(&buf); err != nil {
				return err
			}
			b := buf.Bytes()
			if got.Len() > 0 {
				// Every WriteCSV emits the header line; keep only the first.
				b = b[bytes.IndexByte(b, '\n')+1:]
			}
			got.Write(b)
			return nil
		},
	}).Serve(context.Background(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("window CSV concatenation diverges from batch run: %d vs %d bytes",
			got.Len(), want.Len())
	}
}

// TestServeCheckpointAcrossRestart exercises the public checkpoint
// surface: serve, restart, and confirm the restored resolver labels flows
// the cold restart cannot.
func TestServeCheckpointAcrossRestart(t *testing.T) {
	tr := dnhunter.GenerateQuickTrace(9)
	half := len(tr.Packets) / 2
	ckpt := filepath.Join(t.TempDir(), "clist.ckpt")
	eng := dnhunter.NewEngine()

	first, err := eng.Server(dnhunter.ServeConfig{CheckpointPath: ckpt}).Serve(context.Background(),
		dnhunter.NewLoopSource(tr.Packets[:half], 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if first.CheckpointedEntries == 0 {
		t.Fatal("first run checkpointed nothing")
	}

	run2 := func(path string) *dnhunter.ServeReport {
		rep, err := eng.Server(dnhunter.ServeConfig{CheckpointPath: path}).Serve(context.Background(),
			dnhunter.NewLoopSource(tr.Packets[half:], 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold := run2(filepath.Join(t.TempDir(), "absent.ckpt"))
	warm := run2(ckpt)
	if warm.RestoredEntries != first.CheckpointedEntries {
		t.Fatalf("restored %d, checkpointed %d", warm.RestoredEntries, first.CheckpointedEntries)
	}
	if warm.Stats.LabeledFlows <= cold.Stats.LabeledFlows {
		t.Fatalf("warm restart labeled %d flows, cold %d — checkpoint had no effect",
			warm.Stats.LabeledFlows, cold.Stats.LabeledFlows)
	}
}
