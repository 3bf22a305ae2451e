package netio

import (
	"io"
	"testing"
	"time"
)

func loopPackets() []Packet {
	return []Packet{
		{Timestamp: 0, Data: []byte{1}},
		{Timestamp: 10 * time.Millisecond, Data: []byte{2}},
		{Timestamp: 25 * time.Millisecond, Data: []byte{3}},
	}
}

func TestLoopSourceFinitePasses(t *testing.T) {
	l := NewLoopSource(loopPackets(), 100*time.Millisecond, 3)
	var got []Packet
	for {
		p, err := l.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	if len(got) != 9 {
		t.Fatalf("replayed %d packets, want 9", len(got))
	}
	// Pass 2's first packet starts at 2×period; time never goes backward.
	if got[6].Timestamp != 200*time.Millisecond {
		t.Fatalf("pass-2 first timestamp %v, want 200ms", got[6].Timestamp)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Timestamp <= got[i-1].Timestamp {
			t.Fatalf("timestamps not strictly increasing at %d: %v after %v", i, got[i].Timestamp, got[i-1].Timestamp)
		}
	}
}

func TestLoopSourceReadBlock(t *testing.T) {
	l := NewLoopSource(loopPackets(), 0, 2) // auto period = 25ms + 1ms
	dst := make([]Packet, 8)
	n1, err := l.ReadBlock(dst)
	if err != nil || n1 != 3 {
		t.Fatalf("block 1: n=%d err=%v", n1, err)
	}
	n2, err := l.ReadBlock(dst)
	if err != nil || n2 != 3 {
		t.Fatalf("block 2: n=%d err=%v", n2, err)
	}
	if dst[0].Timestamp != 26*time.Millisecond {
		t.Fatalf("auto period: pass-1 first timestamp %v, want 26ms", dst[0].Timestamp)
	}
	if _, err := l.ReadBlock(dst); err != io.EOF {
		t.Fatalf("after final pass: %v, want EOF", err)
	}
	if l.Passes() < 2 {
		t.Fatalf("Passes() = %d", l.Passes())
	}
}

func TestLoopSourceEmpty(t *testing.T) {
	l := NewLoopSource(nil, 0, 0)
	if _, err := l.Next(); err != io.EOF {
		t.Fatalf("empty loop Next: %v", err)
	}
	if _, err := l.ReadBlock(make([]Packet, 4)); err != io.EOF {
		t.Fatalf("empty loop ReadBlock: %v", err)
	}
}

// drainPaced reads p to EOF through block reads of len(dst) packets and
// returns how many packets arrived and how long the paced replay took.
func drainPaced(t *testing.T, p *PacedSource, dst []Packet) (int, time.Duration) {
	t.Helper()
	start := time.Now()
	total := 0
	for {
		n, blk, err := p.ReadBlockRef(dst)
		total += n
		if blk != nil {
			blk.Release(1)
		}
		if err == io.EOF {
			return total, time.Since(start)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPacedSourcePacesBlocks(t *testing.T) {
	// 40ms of trace at 4x speedup ≈ 10ms of wall time minimum.
	pkts := []Packet{
		{Timestamp: 0, Data: []byte{1}},
		{Timestamp: 40 * time.Millisecond, Data: []byte{2}},
	}
	dst := make([]Packet, 1)
	if _, elapsed := drainPaced(t, NewPacedSource(NewSlicePacketSource(pkts), 4), dst); elapsed < 8*time.Millisecond {
		t.Fatalf("paced replay took %v, want >= ~10ms", elapsed)
	}
	// Pacing is relative to the first packet: a trace that starts 500ms
	// into trace time replays its 10ms in ~10ms, not 510ms.
	late := []Packet{
		{Timestamp: 500 * time.Millisecond, Data: []byte{1}},
		{Timestamp: 510 * time.Millisecond, Data: []byte{2}},
	}
	if _, elapsed := drainPaced(t, NewPacedSource(NewSlicePacketSource(late), 1), dst); elapsed < 8*time.Millisecond || elapsed > 250*time.Millisecond {
		t.Fatalf("late-start replay took %v, want ~10ms", elapsed)
	}
}

func TestPacedSourceUnpacedFallback(t *testing.T) {
	// A non-BlockSource inner source goes through the Next fallback.
	type nextOnly struct{ PacketSource }
	p := NewPacedSource(nextOnly{NewSlicePacketSource(loopPackets())}, 1000)
	if total, _ := drainPaced(t, p, make([]Packet, 4)); total != 3 {
		t.Fatalf("fallback replayed %d packets, want 3", total)
	}
}

// Passes returns completed full passes over the packet slice.
func (l *LoopSource) Passes() int { return l.pass }
