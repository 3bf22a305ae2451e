package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netio"
	"repro/internal/synth"
)

// ringKind adapts the ring tests to one entry type: the ring is generic
// over its entries, and both instantiations the engine uses (shard entries
// on the dispatcher→shard mesh, ingress entries on the stripe→dispatcher
// rings) run every test body below.
type ringKind[E any] struct {
	dropRef func(*E) *netio.Block
	// mk builds an entry carrying a sequence number and a payload handle;
	// get reads them back.
	mk  func(seq int, pay []byte, blk *netio.Block) E
	get func(*E) (seq int, pay []byte, blk *netio.Block)
}

var shardKind = ringKind[shardEntry]{
	dropRef: (*shardEntry).dropRef,
	mk: func(seq int, pay []byte, blk *netio.Block) shardEntry {
		return shardEntry{at: time.Duration(seq), kind: entryFlow, pay: pay, blk: blk}
	},
	get: func(e *shardEntry) (int, []byte, *netio.Block) { return int(e.at), e.pay, e.blk },
}

var srcKind = ringKind[srcEntry]{
	dropRef: (*srcEntry).dropRef,
	mk: func(seq int, pay []byte, blk *netio.Block) srcEntry {
		return srcEntry{at: time.Duration(seq), kind: srcPacket, data: pay, blk: blk}
	},
	get: func(e *srcEntry) (int, []byte, *netio.Block) { return int(e.at), e.data, e.blk },
}

// bothRings runs one generic test body over both ring instantiations.
func bothRings(t *testing.T, shard func(*testing.T, ringKind[shardEntry]), ingress func(*testing.T, ringKind[srcEntry])) {
	t.Run("shard", func(t *testing.T) { shard(t, shardKind) })
	t.Run("ingress", func(t *testing.T) { ingress(t, srcKind) })
}

func (k ringKind[E]) newRing(depth, batch int) *ring[E] {
	return newRing(depth, batch, newConsGate(), k.dropRef)
}

// fillEntries publishes count sequence-numbered entries through r in slots
// of the ring's batch size. Payloads are per-entry heap slices (blk nil —
// the stable-storage case).
func fillEntries[E any](k ringKind[E], r *ring[E], count, batch int) {
	for seq := 0; seq < count; {
		s := r.slot()
		for len(s.entries) < batch && seq < count {
			s.entries = append(s.entries, k.mk(seq, []byte(fmt.Sprintf("p%d", seq)), nil))
			seq++
		}
		r.publish()
	}
	r.close()
}

// drainEntries consumes everything from r, verifying FIFO order and
// payload integrity, and returns the number of entries seen.
func drainEntries[E any](t *testing.T, k ringKind[E], r *ring[E]) int {
	t.Helper()
	seq := 0
	for {
		s, ok := r.consume()
		if !ok {
			return seq
		}
		for i := range s.entries {
			got, pay, _ := k.get(&s.entries[i])
			if got != seq {
				t.Fatalf("entry %d: sequence %d out of order", seq, got)
			}
			if got, want := string(pay), fmt.Sprintf("p%d", seq); got != want {
				t.Fatalf("entry %d: payload %q, want %q", seq, got, want)
			}
			seq++
		}
		r.release()
	}
}

// TestRingWraparound pushes far more slots than the ring holds, so head
// and tail wrap the index space repeatedly; full and empty transitions are
// exercised at every boundary because producer and consumer alternate.
func TestRingWraparound(t *testing.T) {
	bothRings(t, testRingWraparound[shardEntry], testRingWraparound[srcEntry])
}

func testRingWraparound[E any](t *testing.T, k ringKind[E]) {
	const batch = 3
	r := k.newRing(4, batch)
	depth := len(r.slots)
	const rounds = 10
	total := depth * rounds * batch

	done := make(chan int, 1)
	go func() {
		n := 0
		for {
			s, ok := r.consume()
			if !ok {
				done <- n
				return
			}
			for i := range s.entries {
				seq, pay, _ := k.get(&s.entries[i])
				if seq != n {
					t.Errorf("entry %d: sequence %d out of order", n, seq)
				}
				if got, want := string(pay), fmt.Sprintf("p%d", n); got != want {
					t.Errorf("entry %d: payload %q, want %q", n, got, want)
				}
				n++
			}
			r.release()
		}
	}()
	fillEntries(k, r, total, batch)
	if got := <-done; got != total {
		t.Fatalf("consumed %d entries, want %d", got, total)
	}
}

// TestRingBackpressure parks the producer on a full ring: the consumer
// releases slots only after a delay, so the producer must block (not drop,
// not overwrite) until wraparound space frees up. The park counter must
// record the stall.
func TestRingBackpressure(t *testing.T) {
	bothRings(t, testRingBackpressure[shardEntry], testRingBackpressure[srcEntry])
}

func testRingBackpressure[E any](t *testing.T, k ringKind[E]) {
	const batch = 4
	r := k.newRing(2, batch)
	var parks atomic.Uint64
	r.parks = &parks
	total := len(r.slots) * batch * 8

	produced := make(chan struct{})
	go func() {
		fillEntries(k, r, total, batch)
		close(produced)
	}()
	// Give the producer time to hit the full ring and park.
	time.Sleep(10 * time.Millisecond)
	select {
	case <-produced:
		t.Fatal("producer finished before consumer freed any slot; ring not bounded")
	default:
	}
	if got := drainEntries(t, k, r); got != total {
		t.Fatalf("consumed %d entries, want %d", got, total)
	}
	<-produced
	if parks.Load() == 0 {
		t.Error("producer parked on a full ring but the park counter stayed zero")
	}
}

// TestRingCloseDrainsPartial publishes a final partial slot before close;
// the consumer must see every entry, then observe the close.
func TestRingCloseDrainsPartial(t *testing.T) {
	bothRings(t, testRingCloseDrainsPartial[shardEntry], testRingCloseDrainsPartial[srcEntry])
}

func testRingCloseDrainsPartial[E any](t *testing.T, k ringKind[E]) {
	const batch = 8
	r := k.newRing(4, batch)
	const total = batch*2 + 3 // last slot deliberately partial
	go fillEntries(k, r, total, batch)
	if got := drainEntries(t, k, r); got != total {
		t.Fatalf("consumed %d entries, want %d", got, total)
	}
}

// TestRingCloseEmpty closes a ring that never published; the consumer must
// return immediately with ok=false even from a parked wait.
func TestRingCloseEmpty(t *testing.T) {
	bothRings(t, testRingCloseEmpty[shardEntry], testRingCloseEmpty[srcEntry])
}

func testRingCloseEmpty[E any](t *testing.T, k ringKind[E]) {
	r := k.newRing(2, 4)
	go func() {
		time.Sleep(5 * time.Millisecond) // let the consumer park first
		r.close()
	}()
	if _, ok := r.consume(); ok {
		t.Fatal("consume returned a slot from an empty closed ring")
	}
}

// TestRingConcurrentStress runs a producer and consumer flat out under the
// race detector: the SPSC protocol's only synchronization is the pair of
// atomic indices, so any missing happens-before edge shows up here.
func TestRingConcurrentStress(t *testing.T) {
	bothRings(t, testRingConcurrentStress[shardEntry], testRingConcurrentStress[srcEntry])
}

func testRingConcurrentStress[E any](t *testing.T, k ringKind[E]) {
	const batch = 16
	r := k.newRing(8, batch)
	const total = 100_000
	go fillEntries(k, r, total, batch)
	if got := drainEntries(t, k, r); got != total {
		t.Fatalf("consumed %d entries, want %d", got, total)
	}
}

// TestRingBlockHandleRelease runs block-backed payloads through a ring:
// every appended entry takes a reference, the consumer's release must
// return them all (the pool sees the block retire exactly once), and
// discardFill must do the same for an unpublished fill slot (abort path).
func TestRingBlockHandleRelease(t *testing.T) {
	bothRings(t, testRingBlockHandleRelease[shardEntry], testRingBlockHandleRelease[srcEntry])
}

func testRingBlockHandleRelease[E any](t *testing.T, k ringKind[E]) {
	pool := netio.NewBlockPool(1024, 4)
	r := k.newRing(2, 4)

	blk := pool.Get(0)
	s := r.slot()
	for i := 0; i < 3; i++ {
		blk.Retain(1)
		s.entries = append(s.entries, k.mk(i, []byte("x"), blk))
	}
	r.publish()
	r.close()
	blk.Release(1) // the producer's own Get reference

	got, ok := r.consume()
	if !ok {
		t.Fatal("no slot")
	}
	if n := len(got.entries); n != 3 {
		t.Fatalf("consumed %d entries, want 3", n)
	}
	r.release()
	if st := pool.Stats(); st.Retired != 1 {
		t.Fatalf("block retired %d times after consumer release, want 1", st.Retired)
	}
	for i := range got.entries {
		if _, pay, blk := k.get(&got.entries[i]); blk != nil || pay != nil {
			t.Fatalf("entry %d: handles not cleared after release", i)
		}
	}

	// Abort path: entries sitting in a never-published fill slot.
	blk2 := pool.Get(0)
	r2 := k.newRing(2, 4)
	s2 := r2.slot()
	blk2.Retain(1)
	s2.entries = append(s2.entries, k.mk(0, []byte("y"), blk2))
	blk2.Release(1) // producer's Get reference
	r2.discardFill()
	r2.close()
	if st := pool.Stats(); st.Retired != 2 {
		t.Fatalf("block retired %d times after discardFill, want 2", st.Retired)
	}
}

// TestEngineShardEquivalenceBatchBoundaries sweeps the hand-off batch size
// across the boundaries where slot-full flushes and ring wraparound kick
// in — 1 (every entry publishes), capacity−1, capacity, capacity+1 around
// a mid-size slot — and checks exact equivalence against shards=1 at each.
func TestEngineShardEquivalenceBatchBoundaries(t *testing.T) {
	tr := synth.Generate(synth.NamedScenario(synth.NameEU1FTTH, 0.1, 9))
	single := runEngine(t, tr, 1)
	want := flowMultiset(single.DB)

	const slotCap = 64
	for _, batch := range []int{1, slotCap - 1, slotCap, slotCap + 1} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			eng := NewEngine(EngineConfig{Shards: 3, Batch: batch, Truth: tr.TruthFunc()})
			res, err := eng.Run(t.Context(), tr.Source())
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != single.Stats {
				t.Errorf("stats diverge:\n single %+v\n sharded %+v", single.Stats, res.Stats)
			}
			diffMultisets(t, want, flowMultiset(res.DB), fmt.Sprintf("batch=%d", batch))
		})
	}
}

// FuzzShardBatchEquivalence fuzzes the (seed, shards, batch) space: any
// combination must reproduce the single-shard flow multiset and stats
// exactly. Seeds cover the batch boundaries around the default slot
// capacity and degenerate single-entry slots.
func FuzzShardBatchEquivalence(f *testing.F) {
	f.Add(uint64(7), 2, 1)
	f.Add(uint64(7), 3, defaultBatch-1)
	f.Add(uint64(7), 3, defaultBatch)
	f.Add(uint64(7), 3, defaultBatch+1)
	f.Add(uint64(21), 8, 5)
	f.Fuzz(func(t *testing.T, seed uint64, shards, batch int) {
		if shards < 2 || shards > 16 || batch < 1 || batch > 4*defaultBatch {
			t.Skip()
		}
		tr := synth.Generate(synth.QuickScenario(seed))
		single := runEngine(t, tr, 1)
		eng := NewEngine(EngineConfig{Shards: shards, Batch: batch, Truth: tr.TruthFunc()})
		res, err := eng.Run(t.Context(), tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != single.Stats {
			t.Errorf("shards=%d batch=%d stats diverge:\n single %+v\n sharded %+v",
				shards, batch, single.Stats, res.Stats)
		}
		diffMultisets(t, flowMultiset(single.DB), flowMultiset(res.DB),
			fmt.Sprintf("seed=%d shards=%d batch=%d", seed, shards, batch))
	})
}
