package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netio"
	"repro/internal/synth"
)

// The ring tests run their bodies as a "shard" subtest, naming the entry
// type the ring carries.

// ringEntry builds a shard entry carrying a sequence number (in at) and a
// payload handle.
func ringEntry(seq int, pay []byte, blk *netio.Block) shardEntry {
	return shardEntry{at: time.Duration(seq), kind: entryFlow, pay: pay, blk: blk}
}

// fillEntries puts count sequence-numbered entries on r, publishing after
// every `read` of them the way a producer publishes per read block, then
// closes the ring — which must publish the final partial read. Payloads are
// per-entry heap slices (blk nil — the stable-storage case).
func fillEntries(r *ring, count, read int) {
	for seq := 0; seq < count; seq++ {
		r.put(ringEntry(seq, []byte(fmt.Sprintf("p%d", seq)), nil), true)
		if (seq+1)%read == 0 {
			r.publish()
		}
	}
	r.close()
}

// drainEntries consumes everything from r, verifying FIFO order, payload
// integrity and the per-pass batch cap, and returns the number of entries
// seen. It reports with Errorf so it may run off the test goroutine.
func drainEntries(t *testing.T, r *ring) int {
	t.Helper()
	seq := 0
	for {
		s := r.consume()
		if s == nil {
			return seq
		}
		if uint64(len(s)) > r.batch {
			t.Errorf("consume handed out %d entries, batch cap is %d", len(s), r.batch)
		}
		for i := range s {
			got, pay := int(s[i].at), s[i].pay
			if got != seq {
				t.Errorf("entry %d: sequence %d out of order", seq, got)
			}
			if got, want := string(pay), fmt.Sprintf("p%d", seq); got != want {
				t.Errorf("entry %d: payload %q, want %q", seq, got, want)
			}
			seq++
		}
		r.release(s)
	}
}

// TestRingWraparound pushes far more entries than the ring holds, in reads
// whose size divides neither the batch nor the storage size, so head and
// tail wrap the storage repeatedly and published runs straddle both the
// wrap and the batch cap; full and empty transitions are exercised at
// every boundary because producer and consumer alternate.
func TestRingWraparound(t *testing.T) {
	t.Run("shard", func(t *testing.T) {
		const batch, read = 3, 5
		r := newRing(4, batch) // 12 entries in 16 of storage
		total := len(r.buf) * 10 * batch

		done := make(chan int, 1)
		go func() { done <- drainEntries(t, r) }()
		fillEntries(r, total, read)
		if got := <-done; got != total {
			t.Fatalf("consumed %d entries, want %d", got, total)
		}
	})
}

// TestRingBackpressure parks the producer on a full ring: the consumer
// releases entries only after a delay, so the producer must block (not
// drop, not overwrite) until space frees up — having first published
// everything it holds, or the consumer could never free anything. The park
// counter must record the stall and the depth gauge must read full.
func TestRingBackpressure(t *testing.T) {
	t.Run("shard", func(t *testing.T) {
		const depth, batch = 2, 4
		r := newRing(depth, batch)
		total := depth * batch * 8

		produced := make(chan struct{})
		go func() {
			fillEntries(r, total, total) // one read longer than the ring: only a full ring publishes
			close(produced)
		}()
		for r.parks.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		select {
		case <-produced:
			t.Fatal("producer finished before consumer freed any entry; ring not bounded")
		default:
		}
		if got := r.head.Load(); got != depth*batch {
			t.Fatalf("parked producer has published %d entries, want the full ring (%d)", got, depth*batch)
		}
		if got := r.depth(); got != depth {
			t.Fatalf("depth gauge reads %d on a full ring, want %d", got, depth)
		}
		if got := drainEntries(t, r); got != total {
			t.Fatalf("consumed %d entries, want %d", got, total)
		}
		<-produced
		if got := r.depth(); got != 0 {
			t.Fatalf("depth gauge reads %d on a drained ring, want 0", got)
		}
	})
}

// TestRingShedsOnlyWhenFull is the capacity contract of the non-blocking
// put: however small the reads that published them, exactly depth×batch
// entries fit before the first refusal, and a refused entry leaves the
// ring untouched.
func TestRingShedsOnlyWhenFull(t *testing.T) {
	t.Run("shard", func(t *testing.T) {
		const depth, batch = 8, 4
		r := newRing(depth, batch)
		for seq := 0; seq < depth*batch; seq++ {
			if !r.put(ringEntry(seq, []byte(fmt.Sprintf("p%d", seq)), nil), false) {
				t.Fatalf("entry %d refused; the ring holds %d", seq, depth*batch)
			}
			if seq%3 != 1 { // reads of one or two entries
				r.publish()
			}
		}
		if r.put(ringEntry(-1, nil, nil), false) {
			t.Fatal("put succeeded on a full ring")
		}
		if got := r.depth(); got != depth {
			t.Fatalf("depth gauge reads %d on a full ring, want %d", got, depth)
		}
		r.close()
		if got := drainEntries(t, r); got != depth*batch {
			t.Fatalf("consumed %d entries, want %d", got, depth*batch)
		}
	})
}

// TestRingCloseDrainsPartial closes with a final partial read unpublished;
// the consumer must see every entry, then observe the close.
func TestRingCloseDrainsPartial(t *testing.T) {
	t.Run("shard", func(t *testing.T) {
		const batch = 8
		r := newRing(4, batch)
		const total = batch*2 + 3 // last read deliberately partial
		go fillEntries(r, total, batch)
		if got := drainEntries(t, r); got != total {
			t.Fatalf("consumed %d entries, want %d", got, total)
		}
	})
}

// TestRingCloseEmpty closes a ring that never published; the consumer must
// return immediately with nil even from a parked wait.
func TestRingCloseEmpty(t *testing.T) {
	t.Run("shard", func(t *testing.T) {
		r := newRing(2, 4)
		go func() {
			time.Sleep(5 * time.Millisecond) // let the consumer park first
			r.close()
		}()
		if s := r.consume(); s != nil {
			t.Fatal("consume returned entries from an empty closed ring")
		}
	})
}

// TestRingConcurrentStress runs a producer and consumer flat out under the
// race detector: the SPSC protocol's only synchronization is the pair of
// atomic indices, so any missing happens-before edge shows up here.
func TestRingConcurrentStress(t *testing.T) {
	t.Run("shard", func(t *testing.T) {
		const batch = 16
		r := newRing(8, batch)
		const total = 100_000
		go fillEntries(r, total, 7)
		if got := drainEntries(t, r); got != total {
			t.Fatalf("consumed %d entries, want %d", got, total)
		}
	})
}

// TestRingBlockHandleRelease runs block-backed payloads through a ring:
// every put entry takes a reference and the consumer's release must return
// them all (the pool sees the block retire exactly once) and clear the
// handles. The abort path is the same path: entries still unpublished when
// the producer gives up are published by close, and a consumer that
// releases them without processing them returns their references.
func TestRingBlockHandleRelease(t *testing.T) {
	t.Run("shard", func(t *testing.T) {
		pool := netio.NewBlockPool(1024, 4)
		r := newRing(2, 4)

		blk := pool.Get(0)
		for i := 0; i < 3; i++ {
			blk.Retain(1)
			r.put(ringEntry(i, []byte("x"), blk), true)
		}
		r.publish()
		blk.Release(1) // the producer's own Get reference

		got := r.consume()
		if n := len(got); n != 3 {
			t.Fatalf("consumed %d entries, want 3", n)
		}
		if st := pool.Stats(); st.Retired != 0 {
			t.Fatalf("block retired %d times while the consumer still holds its entries", st.Retired)
		}
		r.release(got)
		if st := pool.Stats(); st.Retired != 1 {
			t.Fatalf("block retired %d times after consumer release, want 1", st.Retired)
		}
		for i := range got {
			if got[i].blk != nil || got[i].pay != nil {
				t.Fatalf("entry %d: handles not cleared after release", i)
			}
		}

		// Abort path: entries put but never published when the producer stops.
		blk2 := pool.Get(0)
		blk2.Retain(1)
		r.put(ringEntry(0, []byte("y"), blk2), true)
		blk2.Release(1) // producer's Get reference
		if s := r.tryConsume(); len(s) != 0 {
			t.Fatalf("consumer sees %d unpublished entries", len(s))
		}
		r.close()
		for s := r.consume(); s != nil; s = r.consume() {
			r.release(s) // an aborting consumer releases without processing
		}
		if st := pool.Stats(); st.Retired != 2 {
			t.Fatalf("block retired %d times after the aborted entries drained, want 2", st.Retired)
		}
	})
}

// TestEngineShardEquivalenceBatchBoundaries sweeps the hand-off batch size
// across the boundaries where the per-pass cap, ring-full publishes and
// storage wraparound kick in — 1 (an 8-entry ring), capacity−1, capacity,
// capacity+1 around a mid-size batch — and checks exact equivalence
// against shards=1 at each.
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
// exactly. Seeds cover the batch boundaries around the default batch and
// the degenerate single-entry batch.
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
