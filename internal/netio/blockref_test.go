package netio

import (
	"bytes"
	"io"
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

// TestRefAdapterStable: a StableSource's frames pass through zero-copy —
// nil block, Data aliasing the source's own storage.
func TestRefAdapterStable(t *testing.T) {
	orig := []Packet{
		{Timestamp: 1, Data: []byte("alpha")},
		{Timestamp: 2, Data: []byte("beta")},
	}
	a := NewRefAdapter(NewSlicePacketSource(orig), nil, true)
	dst := make([]Packet, 4)
	n, blk, _ := a.ReadBlockRef(dst)
	if n != 2 || blk != nil {
		t.Fatalf("n=%d blk=%v, want 2 packets with nil block", n, blk)
	}
	if &dst[0].Data[0] != &orig[0].Data[0] {
		t.Error("stable source copied instead of aliasing")
	}
}

// TestRefAdapterCopies: a buffer-reusing source's frames are copied once
// into a pooled block, so they survive the source's next read; the caller's
// release retires the block.
func TestRefAdapterCopies(t *testing.T) {
	pool := NewBlockPool(1024, 2)
	src := &fakeReusingSource{frames: [][]byte{[]byte("first"), []byte("second")}}
	a := NewRefAdapter(src, pool, true)

	dst := make([]Packet, 1)
	n, blk, err := a.ReadBlockRef(dst)
	if n != 1 || blk == nil || err != nil {
		t.Fatalf("n=%d blk=%v err=%v, want 1 packet in a pooled block", n, blk, err)
	}
	first := dst[0].Data
	if _, _, err := a.ReadBlockRef(make([]Packet, 1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, []byte("first")) {
		t.Errorf("frame clobbered by the source's buffer reuse: %q", first)
	}
	blk.Release(1)
	if st := pool.Stats(); st.Retired != 1 {
		t.Fatalf("block not retired after release: %+v", st)
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
