package netio

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"
)

// TestBlockPoolRecycle pins the refcount lifecycle: Get hands out one
// reference, Retain/Release balance, the final release retires the block
// into the freelist, and a subsequent Get reuses it without allocating.
func TestBlockPoolRecycle(t *testing.T) {
	p := NewBlockPool(1024, 2)
	b := p.Get(0)
	b.Retain(2)
	b.Release(1)
	if st := p.Stats(); st.Retired != 0 {
		t.Fatal("block retired with references outstanding")
	}
	b.Release(2)
	st := p.Stats()
	if st.Gets != 1 || st.Allocs != 1 || st.Retired != 1 {
		t.Fatalf("after one cycle: %+v", st)
	}
	if st.RetireNs == 0 {
		t.Error("retire latency not recorded")
	}
	if p.Get(0) == nil {
		t.Fatal("nil block")
	}
	if st := p.Stats(); st.Allocs != 1 {
		t.Fatalf("freelist miss on recycle: %+v", st)
	}
}

// TestBlockPoolOversized: a frame larger than the pool's block size gets a
// dedicated block that retires to the GC, never the freelist.
func TestBlockPoolOversized(t *testing.T) {
	p := NewBlockPool(64, 2)
	b := p.Get(1000)
	if cap(b.buf) < 1000 {
		t.Fatalf("oversized block capacity %d", cap(b.buf))
	}
	b.Release(1)
	if st := p.Stats(); st.Retired != 1 {
		t.Fatalf("oversized block not retired: %+v", st)
	}
	if b2 := p.Get(0); cap(b2.buf) != 64 {
		t.Fatalf("oversized block leaked into the freelist (cap %d)", cap(b2.buf))
	}
}

// TestBlockPoolFreelistBound: the freelist never holds more than maxFree
// blocks; the surplus is left to the garbage collector.
func TestBlockPoolFreelistBound(t *testing.T) {
	p := NewBlockPool(64, 2)
	bs := []*Block{p.Get(0), p.Get(0), p.Get(0), p.Get(0)}
	for _, b := range bs {
		b.Release(1)
	}
	if got := len(p.free); got != 2 {
		t.Fatalf("freelist holds %d blocks, want max 2", got)
	}
}

// fakeReusingSource reuses one buffer across Next calls — the contract
// that forces RefAdapter onto its copy-into-pooled-block path.
type fakeReusingSource struct {
	frames [][]byte
	buf    []byte
	next   int
}

func (s *fakeReusingSource) Next() (Packet, error) {
	if s.next >= len(s.frames) {
		return Packet{}, io.EOF
	}
	s.buf = append(s.buf[:0], s.frames[s.next]...)
	p := Packet{Timestamp: time.Duration(s.next), Data: s.buf}
	s.next++
	return p, nil
}

// edgeFrames returns frames of the lengths at the edges of RefAdapter's
// touch loop — empty, one byte, exactly 64 (byte 64 absent), 65 (byte 64
// present) and a jumbo frame — each filled with its own byte pattern.
func edgeFrames() [][]byte {
	lens := []int{0, 1, 64, 65, 9000}
	frames := make([][]byte, len(lens))
	for i, n := range lens {
		frames[i] = make([]byte, n)
		for j := range frames[i] {
			frames[i][j] = byte(i*31 + j)
		}
	}
	return frames
}

// TestRefAdapterStable: a LoopSource's frames pass through zero-copy —
// nil block, Data aliasing the source's own storage — with or without
// retain, whatever their length: with retain through its ReadBlockRef,
// without through its ReadBlock.
func TestRefAdapterStable(t *testing.T) {
	frames := edgeFrames()
	for _, retain := range []bool{false, true} {
		t.Run(fmt.Sprintf("retain=%v", retain), func(t *testing.T) {
			orig := make([]Packet, len(frames))
			for i, fr := range frames {
				orig[i] = Packet{Timestamp: time.Duration(i + 1), Data: fr}
			}
			a := NewRefAdapter(NewLoopSource(orig, 0, 1), nil, retain)
			dst := make([]Packet, 8)
			n, blk, _ := a.ReadBlockRef(dst)
			if n != len(orig) || blk != nil {
				t.Fatalf("n=%d blk=%v, want %d packets with nil block", n, blk, len(orig))
			}
			for i := range orig {
				if dst[i].Timestamp != orig[i].Timestamp || !bytes.Equal(dst[i].Data, frames[i]) || len(dst[i].Data) != len(frames[i]) {
					t.Fatalf("packet %d: ts=%v, %d bytes; want ts=%v, %d bytes", i, dst[i].Timestamp, len(dst[i].Data), orig[i].Timestamp, len(frames[i]))
				}
				if len(frames[i]) > 0 && &dst[i].Data[0] != &orig[i].Data[0] {
					t.Errorf("packet %d: stable source copied instead of aliasing", i)
				}
			}
			if n, blk, err := a.ReadBlockRef(dst); n != 0 || blk != nil || err != io.EOF {
				t.Fatalf("after the last frame: n=%d blk=%v err=%v, want 0, nil, EOF", n, blk, err)
			}
		})
	}
}

// TestRefAdapterCopies: with retain, a buffer-reusing source's frames are
// copied once into a pooled block, so they survive the source's next read,
// and the caller's release retires the block; without retain they are
// borrowed (nil block) and intact until the next read. Both hold for every
// frame length, an oversized one-off block included.
func TestRefAdapterCopies(t *testing.T) {
	frames := edgeFrames()
	for _, retain := range []bool{false, true} {
		t.Run(fmt.Sprintf("retain=%v", retain), func(t *testing.T) {
			pool := NewBlockPool(1024, 2)
			a := NewRefAdapter(&fakeReusingSource{frames: frames}, pool, retain)
			var held [][]byte
			var blks []*Block
			dst := make([]Packet, 1)
			for i := range frames {
				n, blk, err := a.ReadBlockRef(dst)
				if n != 1 || err != nil || (blk != nil) != retain {
					t.Fatalf("read %d: n=%d blk=%v err=%v, want 1 packet, block iff retain", i, n, blk, err)
				}
				if !bytes.Equal(dst[0].Data, frames[i]) || len(dst[0].Data) != len(frames[i]) {
					t.Fatalf("read %d: %d bytes, want %d (corrupted)", i, len(dst[0].Data), len(frames[i]))
				}
				if retain {
					held = append(held, dst[0].Data)
					blks = append(blks, blk)
				}
			}
			if n, blk, err := a.ReadBlockRef(dst); n != 0 || blk != nil || err != io.EOF {
				t.Fatalf("after the last frame: n=%d blk=%v err=%v, want 0, nil, EOF", n, blk, err)
			}
			for i, d := range held {
				if !bytes.Equal(d, frames[i]) {
					t.Errorf("frame %d clobbered by the source's buffer reuse", i)
				}
			}
			for _, b := range blks {
				b.Release(1)
			}
			st := pool.Stats()
			if want := uint64(len(blks)); st.Gets != want || st.Retired != want {
				t.Fatalf("Gets=%d Retired=%d, want both %d", st.Gets, st.Retired, want)
			}
		})
	}
}

// TestRefAdapterBorrowedAllocs pins the single-shard read edge: a warm
// borrowed ReadBlockRef allocates nothing.
func TestRefAdapterBorrowedAllocs(t *testing.T) {
	var pkts []Packet
	for i, fr := range edgeFrames() {
		pkts = append(pkts, Packet{Timestamp: time.Duration(i), Data: fr})
	}
	a := NewRefAdapter(NewLoopSource(pkts, 0, 0), nil, false)
	dst := make([]Packet, 256)
	read := func() {
		if n, blk, err := a.ReadBlockRef(dst); n == 0 || blk != nil || err != nil {
			t.Fatalf("n=%d blk=%v err=%v", n, blk, err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("borrowed ReadBlockRef allocates %v per call, want 0", allocs)
	}
}

// TestRefAdapterDelegates: a source that is already a BlockRefSource (the
// pcap Reader) is used directly — no second copy, no second pool.
func TestRefAdapterDelegates(t *testing.T) {
	raw, want := writeTestPcap(t, 10)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	a := NewRefAdapter(r, nil, true)
	dst := make([]Packet, 16)
	n, blk, _ := a.ReadBlockRef(dst)
	if n != 10 || blk == nil {
		t.Fatalf("n=%d blk=%v, want 10 packets in one block", n, blk)
	}
	for i := range dst[:n] {
		if !bytes.Equal(dst[i].Data, want[i].Data) {
			t.Fatalf("packet %d corrupted through delegation", i)
		}
	}
	blk.Release(1)
}

// TestReaderReadBlockRef frames pcap records straight into pooled blocks:
// contents must match the written records, a record that cannot fit the
// current block must wait for the next call (header unconsumed, no spill),
// and a record larger than a whole pooled block gets a dedicated one.
func TestReaderReadBlockRef(t *testing.T) {
	frames := [][]byte{
		bytes.Repeat([]byte{0xaa}, 100),
		bytes.Repeat([]byte{0xbb}, 200),
		bytes.Repeat([]byte{0xcc}, defaultBlockBytes+1), // oversized: dedicated block
		bytes.Repeat([]byte{0xdd}, 50),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, fr := range frames {
		if err := w.WritePacket(Packet{Timestamp: time.Duration(i) * time.Second, Data: fr}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	dst := make([]Packet, 8)
	for {
		n, blk, err := r.ReadBlockRef(dst)
		for i := 0; i < n; i++ {
			got = append(got, append([]byte(nil), dst[i].Data...))
		}
		if blk != nil {
			blk.Release(1)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(frames) {
		t.Fatalf("read %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("frame %d: %d bytes, want %d (corrupted)", i, len(got[i]), len(frames[i]))
		}
	}
}

// TestBlockPoolSmallClass: a read that fits one page takes a small block,
// a larger one a full-size block; a pool whose blocks are no larger than a
// page has no small class; and the small freelist is bounded too.
func TestBlockPoolSmallClass(t *testing.T) {
	p := NewBlockPool(0, 0)
	if b := p.getFit(100); cap(b.buf) != smallBlockBytes {
		t.Fatalf("100-byte read took a %d-byte block, want %d", cap(b.buf), smallBlockBytes)
	}
	if b := p.getFit(smallBlockBytes + 1); cap(b.buf) != defaultBlockBytes {
		t.Fatalf("%d-byte read took a %d-byte block, want %d", smallBlockBytes+1, cap(b.buf), defaultBlockBytes)
	}
	if b := NewBlockPool(1024, 2).getFit(100); cap(b.buf) != 1024 {
		t.Fatalf("1-KiB pool handed out a %d-byte block", cap(b.buf))
	}
	bs := make([]*Block, smallPoolBlocks+8)
	for i := range bs {
		bs[i] = p.getFit(1)
	}
	for _, b := range bs {
		b.Release(1)
	}
	if len(p.smallFree) != smallPoolBlocks || len(p.free) != 0 {
		t.Fatalf("freelists hold %d small and %d full-size blocks, want %d and 0", len(p.smallFree), len(p.free), smallPoolBlocks)
	}
}

// TestRefAdapterShortReadsSmallBlocks drives one-packet reads of a
// buffer-reusing source, as a paced source yields them, while a consumer
// goroutine holds the newest window blocks — more than the full-size
// freelist keeps — and checks each payload just before releasing it. Every
// read must take a small block, so the run allocates a bounded number of
// bytes (a full-size block per read would cost 256 KiB for each block held);
// every payload must stay intact until its release, though the source
// reuses its buffer and later reads fill other blocks; and once all are
// released, Gets == Retired.
func TestRefAdapterShortReadsSmallBlocks(t *testing.T) {
	const reads, window = 4096, 200
	frames := make([][]byte, reads)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 30+i%728) // 60..1514 bytes
	}
	pool := NewBlockPool(0, 0)
	// The source's buffer and the consumer's FIFO are sized up front, so
	// the pool is all the run allocates.
	a := NewRefAdapter(&fakeReusingSource{frames: frames, buf: make([]byte, 0, 2048)}, pool, true)

	type held struct {
		i    int
		data []byte
		blk  *Block
	}
	ch := make(chan held, 16)
	bad := make(chan string, 1)
	fifo := make([]held, 0, reads)
	go func() {
		defer close(bad)
		release := func(h held) {
			if !bytes.Equal(h.data, frames[h.i]) {
				select {
				case bad <- fmt.Sprintf("packet %d overwritten before its release", h.i):
				default:
				}
			}
			h.blk.Release(1)
		}
		for h := range ch {
			if fifo = append(fifo, h); len(fifo) > window {
				release(fifo[0])
				fifo = fifo[1:]
			}
		}
		for _, h := range fifo {
			release(h)
		}
	}()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	dst := make([]Packet, 1)
	for i := range reads {
		n, blk, err := a.ReadBlockRef(dst)
		if n != 1 || blk == nil || err != nil {
			t.Fatalf("read %d: n=%d blk=%v err=%v", i, n, blk, err)
		}
		if cap(blk.buf) != smallBlockBytes {
			t.Fatalf("read %d of %d bytes took a %d-byte block", i, len(dst[0].Data), cap(blk.buf))
		}
		ch <- held{i, dst[0].Data, blk}
	}
	close(ch)
	for msg := range bad {
		t.Error(msg)
	}
	runtime.ReadMemStats(&m1)

	// At most window blocks held, cap(ch) queued, one being released and
	// one being filled: the pool allocates no more than that, and the run
	// no more than their pages plus a little bookkeeping.
	inFlight := uint64(window + cap(ch) + 2)
	st := pool.Stats()
	if st.Gets != reads || st.Retired != st.Gets {
		t.Fatalf("Gets=%d Retired=%d, want both %d", st.Gets, st.Retired, reads)
	}
	if st.Allocs > inFlight {
		t.Errorf("pool allocated %d blocks, want at most %d", st.Allocs, inFlight)
	}
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, inFlight*(smallBlockBytes+512)+64<<10; got > limit {
		t.Errorf("%d one-packet reads allocated %d bytes, want at most %d", reads, got, limit)
	}
}
