package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowdb"
	"repro/internal/netio"
	"repro/internal/synth"
)

// served is what one Serve left behind: its report and error, the packets
// it read, every flushed window's CSV in order, and the checkpoint bytes.
type served struct {
	rep     *core.ServeReport
	err     error
	packets uint64
	windows []byte
	ckpt    []byte
}

// serveOutputs serves src at shards with one-minute windows and a
// checkpoint, and returns what the run left behind.
func serveOutputs(t *testing.T, src netio.PacketSource, shards int) served {
	t.Helper()
	path := filepath.Join(t.TempDir(), "clist.ckpt")
	var csv bytes.Buffer
	srv := core.NewServer(core.EngineConfig{Shards: shards}, core.ServeConfig{
		Window:         time.Minute,
		DrainTimeout:   10 * time.Second,
		CheckpointPath: path,
		FlushWindow: func(w flowdb.Window) error {
			fmt.Fprintf(&csv, "# window %d [%v, %v)\n", w.Index, w.Start, w.End)
			return w.DB.WriteCSV(&csv)
		},
	})
	out := served{}
	out.rep, out.err = srv.Serve(context.Background(), src)
	out.packets = srv.Metrics().Packets()
	out.windows = csv.Bytes()
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	out.ckpt = ckpt
	return out
}

// sameOutputs fails t unless got's windows and checkpoint equal want's.
func sameOutputs(t *testing.T, got, want served) {
	t.Helper()
	if len(want.windows) == 0 || len(want.ckpt) == 0 {
		t.Fatal("the clean run flushed no window or checkpointed nothing: the comparison would be vacuous")
	}
	if !bytes.Equal(got.windows, want.windows) {
		t.Error("window CSVs differ from a clean serve over the same packets")
	}
	if !bytes.Equal(got.ckpt, want.ckpt) {
		t.Error("checkpoint differs from a clean serve over the same packets")
	}
}

// TestServeTruncatedCapture: a pcap cut inside a record, as a capture
// whose writer died leaves it, ends Serve with the unexpected EOF after a
// full drain. The whole records before the cut are delivered and the cut
// one is not, so the windows and the checkpoint equal those of a clean
// serve over exactly those records.
func TestServeTruncatedCapture(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(31))
	var file bytes.Buffer
	w := netio.NewWriter(&file)
	for _, p := range tr.Packets {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read the records back: the file keeps microseconds, so the clean
	// reference must see the same timestamps the cut file yields.
	rd, err := netio.NewReader(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var pkts []netio.Packet
	for {
		p, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p.Data = append([]byte(nil), p.Data...)
		pkts = append(pkts, p)
	}
	k := 2 * len(pkts) / 3 // the record the cut falls in
	off := 24              // the file header
	for _, p := range pkts[:k] {
		off += 16 + len(p.Data)
	}

	for _, cut := range []struct {
		name string
		at   int
	}{
		{"body", off + 16 + len(pkts[k].Data)/2},
		{"header", off + 8},
	} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", cut.name, shards), func(t *testing.T) {
				src, err := netio.NewReader(bytes.NewReader(file.Bytes()[:cut.at]))
				if err != nil {
					t.Fatal(err)
				}
				got := serveOutputs(t, src, shards)
				if got.rep == nil || !errors.Is(got.err, io.ErrUnexpectedEOF) {
					t.Fatalf("Serve = (%v, %v), want a report and the unexpected EOF", got.rep, got.err)
				}
				if got.packets != uint64(k) {
					t.Errorf("read %d packets, want the %d whole records before the cut", got.packets, k)
				}
				want := serveOutputs(t, netio.NewLoopSource(pkts[:k], 0, 1), shards)
				if want.err != nil {
					t.Fatal(want.err)
				}
				sameOutputs(t, got, want)
			})
		}
	}
}
