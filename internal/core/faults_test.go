package core_test

import (
	"bytes"
	"errors"
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

// TestScheduleAt: At(n) fires on exactly operation n.
func TestScheduleAt(t *testing.T) {
	s := At(3)
	for n := uint64(0); n < 10; n++ {
		if got, want := s.Fire(n, 0), n == 3; got != want {
			t.Errorf("At(3).Fire(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestScheduleAfter: After(d) keys on trace time, not operation index.
func TestScheduleAfter(t *testing.T) {
	s := After(time.Second)
	if s.Fire(0, 999*time.Millisecond) {
		t.Error("fired before the threshold")
	}
	if !s.Fire(0, time.Second) || !s.Fire(1000, 2*time.Second) {
		t.Error("did not fire at/past the threshold")
	}
}

// TestScheduleEveryP: the firing pattern is a pure function of (p, seed),
// edge probabilities behave, and the empirical rate tracks p.
func TestScheduleEveryP(t *testing.T) {
	const N = 20000
	a, b := EveryP(0.1, 42), EveryP(0.1, 42)
	other := EveryP(0.1, 43)
	fires, diverged := 0, false
	for n := uint64(0); n < N; n++ {
		fa := a.Fire(n, 0)
		if fa != b.Fire(n, 0) {
			t.Fatalf("same (p, seed) diverged at n=%d", n)
		}
		if fa != other.Fire(n, 0) {
			diverged = true
		}
		if fa {
			fires++
		}
	}
	if !diverged {
		t.Error("different seeds produced identical firing patterns")
	}
	if rate := float64(fires) / N; rate < 0.08 || rate > 0.12 {
		t.Errorf("EveryP(0.1) empirical rate %.4f, want ~0.1", rate)
	}
	for n := uint64(0); n < 100; n++ {
		if EveryP(0, 1).Fire(n, 0) {
			t.Fatal("p=0 fired")
		}
		if !EveryP(1, 1).Fire(n, 0) {
			t.Fatal("p=1 did not fire")
		}
	}
	if fire(nil, 0, 0) {
		t.Error("nil schedule fired")
	}
}

// TestSourceUnarmedTransparent: an empty config is a pure pass-through —
// identical packets, timestamps, and stream end.
func TestSourceUnarmedTransparent(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(11))
	faulty := newFaultSource(tr.Source(), faultSourceConfig{})
	direct := tr.Source()
	for i := 0; ; i++ {
		wp, werr := direct.Next()
		gp, gerr := faulty.Next()
		if !errors.Is(gerr, werr) && (gerr != nil) != (werr != nil) {
			t.Fatalf("packet %d: err %v, want %v", i, gerr, werr)
		}
		if werr != nil {
			break
		}
		if gp.Timestamp != wp.Timestamp || !bytes.Equal(gp.Data, wp.Data) {
			t.Fatalf("packet %d differs through an unarmed wrapper", i)
		}
	}
}

// unstableLoop replays a LoopSource through Next and ReadBlock only, not
// its ReadBlockRef, so the adapter copies its frames into pooled blocks, as
// it does a capture's.
type unstableLoop struct{ loop *netio.LoopSource }

func (u unstableLoop) Next() (netio.Packet, error) { return u.loop.Next() }

func (u unstableLoop) ReadBlock(dst []netio.Packet) (int, error) { return u.loop.ReadBlock(dst) }

// TestSourceUnarmedAllocFree: an unarmed wrapper adds no allocation to the
// engine's read path, over an inner source the adapter copies into pooled
// blocks (looping, Next and ReadBlock only) and one it reads zero-copy
// (the LoopSource's own ReadBlockRef).
func TestSourceUnarmedAllocFree(t *testing.T) {
	pkts := synth.Generate(synth.QuickScenario(11)).Packets
	for _, tc := range []struct {
		name string
		src  netio.PacketSource
	}{
		{"loop", unstableLoop{netio.NewLoopSource(pkts, 0, 0)}},
		{"slice", netio.NewLoopSource(pkts, 0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const reads, perRead = 20, 64
			// AllocsPerRun makes one warm-up call (which fills the block
			// pool's freelist) before the measured one.
			if need := 2 * reads * perRead; len(pkts) < need {
				t.Fatalf("trace has %d packets, need %d", len(pkts), need)
			}
			s := newFaultSource(tc.src, faultSourceConfig{})
			dst := make([]netio.Packet, perRead)
			// One run covers every read, so a single allocation in any of
			// them fails (AllocsPerRun floors its per-run average).
			if n := testing.AllocsPerRun(1, func() {
				for i := 0; i < reads; i++ {
					n, blk, err := s.ReadBlockRef(dst)
					if err != nil || n == 0 {
						t.Fatalf("read = (%d, %v)", n, err)
					}
					if blk != nil {
						blk.Release(1)
					}
				}
			}); n != 0 {
				t.Fatalf("unarmed ReadBlockRef allocates %v per %d reads, want 0", n, reads)
			}
		})
	}
}

// TestSinkUnarmedAllocFree: a faultSink whose schedules never fire adds
// no allocation to the per-flow event callbacks, unarmed or armed with
// schedules that stay quiet.
func TestSinkUnarmedAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  faultSinkConfig
	}{
		{"unarmed", faultSinkConfig{}},
		{"quiet", faultSinkConfig{Block: EveryP(0, 1), Err: At(1 << 62), BlockFor: time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newFaultSink(core.NopSink{}, tc.cfg)
			tag := core.TagEvent{Label: "www.example.com", Hit: true, SYN: true}
			dns := core.DNSEvent{FQDN: "www.example.com", NumAddrs: 2}
			f := flowdb.LabeledFlow{Label: "www.example.com", Labeled: true}
			if n := testing.AllocsPerRun(100, func() {
				s.OnTag(tag)
				s.OnDNSResponse(dns)
				s.OnFlow(f)
			}); n != 0 {
				t.Fatalf("sink callbacks allocate %v per flow, want 0", n)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSourceErrResumable: a firing Err schedule returns the injected
// error once without consuming input; the retried stream is complete.
func TestSourceErrResumable(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(12))
	src := newFaultSource(tr.Source(), faultSourceConfig{Err: At(5)})
	got, injected := 0, 0
	for {
		_, err := src.Next()
		if errors.Is(err, ErrInjected) {
			injected++
			continue // read again past the error
		}
		if err != nil {
			break
		}
		got++
	}
	if injected != 1 {
		t.Errorf("injected %d errors, want exactly 1 (read-call keyed)", injected)
	}
	if got != len(tr.Packets) {
		t.Errorf("delivered %d packets, want %d (error must not consume input)", got, len(tr.Packets))
	}
}

// TestSourceEOFPrefix: EOF At(N) delivers a byte-identical prefix of the
// unfaulted stream, then clean EOF forever.
func TestSourceEOFPrefix(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(13))
	const cut = 100
	src := newFaultSource(tr.Source(), faultSourceConfig{EOF: At(cut)})
	var got []netio.Packet
	for {
		p, err := src.Next()
		if err != nil {
			break
		}
		p.Data = append([]byte(nil), p.Data...)
		got = append(got, p)
	}
	if len(got) != cut {
		t.Fatalf("delivered %d packets, want %d", len(got), cut)
	}
	for i, p := range got {
		if p.Timestamp != tr.Packets[i].Timestamp || !bytes.Equal(p.Data, tr.Packets[i].Data) {
			t.Fatalf("packet %d not byte-identical to the unfaulted prefix", i)
		}
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("post-cut read = %v, want io.EOF", err)
	}
}

// TestSourceFrameFaults: truncation and clock faults hit exactly the
// scheduled packet.
func TestSourceFrameFaults(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(14))
	src := newFaultSource(tr.Source(), faultSourceConfig{
		Truncate: At(3), TruncateTo: 7,
		ClockBack: At(5), ClockBackBy: time.Hour * 1000, // clamps to 0
		ClockSkew: At(6), ClockSkewBy: time.Minute,
	})
	for i := 0; i < 8; i++ {
		p, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 3:
			if len(p.Data) != 7 {
				t.Errorf("packet 3 len %d, want truncated to 7", len(p.Data))
			}
		case 5:
			if p.Timestamp != 0 {
				t.Errorf("packet 5 timestamp %v, want clamped to 0", p.Timestamp)
			}
		case 6:
			if want := tr.Packets[6].Timestamp + time.Minute; p.Timestamp != want {
				t.Errorf("packet 6 timestamp %v, want skewed to %v", p.Timestamp, want)
			}
		default:
			if p.Timestamp != tr.Packets[i].Timestamp || len(p.Data) != len(tr.Packets[i].Data) {
				t.Errorf("unscheduled packet %d was modified", i)
			}
		}
	}
}

// TestSourceShortBlock: a firing ShortBlock caps the read at one packet
// without losing any.
func TestSourceShortBlock(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(15))
	src := newFaultSource(tr.Source(), faultSourceConfig{ShortBlock: At(0)})
	dst := make([]netio.Packet, 64)
	n, _, err := src.ReadBlockRef(dst)
	if err != nil || n != 1 {
		t.Fatalf("short block read = (%d, %v), want (1, nil)", n, err)
	}
	total := n
	for {
		n, _, err := src.ReadBlockRef(dst)
		total += n
		if err != nil {
			break
		}
	}
	if total != len(tr.Packets) {
		t.Errorf("delivered %d packets, want %d", total, len(tr.Packets))
	}
}

// countingSink records OnFlow deliveries behind the fault wrapper.
type countingSink struct{ flows int }

func (c *countingSink) OnTag(core.TagEvent)         {}
func (c *countingSink) OnDNSResponse(core.DNSEvent) {}
func (c *countingSink) OnFlow(flowdb.LabeledFlow)   { c.flows++ }
func (c *countingSink) Close() error                { return nil }

// TestSinkFaults: a firing Err schedule surfaces at Close; every flow
// still reaches the inner sink.
func TestSinkFaults(t *testing.T) {
	inner := &countingSink{}
	s := newFaultSink(inner, faultSinkConfig{Err: At(1), Block: At(0), BlockFor: time.Microsecond})
	for i := 0; i < 5; i++ {
		s.OnFlow(flowdb.LabeledFlow{})
	}
	if inner.flows != 5 {
		t.Errorf("inner sink saw %d flows, want 5 (faults must not drop)", inner.flows)
	}
	if err := s.Close(); !errors.Is(err, ErrSinkInjected) {
		t.Errorf("Close = %v, want ErrSinkInjected", err)
	}
	clean := newFaultSink(&countingSink{}, faultSinkConfig{})
	clean.OnFlow(flowdb.LabeledFlow{})
	if err := clean.Close(); err != nil {
		t.Errorf("unarmed sink Close = %v", err)
	}
}

// TestCorruptHelpers: deterministic byte-image transforms.
func TestCorruptHelpers(t *testing.T) {
	data := []byte("checkpoint body bytes")
	a, b := FlipBit(data, 99), FlipBit(data, 99)
	if !bytes.Equal(a, b) {
		t.Error("FlipBit not deterministic for a fixed seed")
	}
	diff := 0
	for i := range a {
		if a[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("FlipBit changed %d bytes, want exactly 1", diff)
	}
	if got := TruncateTail(data, 5); len(got) != len(data)-5 || !bytes.Equal(got, data[:len(data)-5]) {
		t.Error("TruncateTail wrong")
	}
	if got := TruncateTail(data, len(data)+10); len(got) != 0 {
		t.Error("over-truncation must yield empty")
	}
	if got := SetByte(data, 0, 'X'); got[0] != 'X' || data[0] == 'X' {
		t.Error("SetByte must copy")
	}
	if got := FlipBitAt(data, 9); got[1] != data[1]^2 {
		t.Error("FlipBitAt flipped the wrong bit")
	}

	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CorruptFile(path, func(b []byte) []byte { return TruncateTail(b, 3) }); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, data[:len(data)-3]) {
		t.Error("CorruptFile did not apply the transform")
	}
}
