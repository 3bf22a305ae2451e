package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/flows"
	"repro/internal/netio"
	"repro/internal/synth"
)

// TestCancelReleasesEveryBlock is the abort-path arena audit: a context
// cancelled mid-run — while Blocks checked out of the pool are in flight
// through dispatchers, rings, and shards — must still retire every block.
// Any Gets/Retired imbalance is a leaked (or double-released) handle. The
// matrix covers the single-pipeline and sharded dispatch shapes, whose
// abort paths are different. Not parallel: the audit reads the shared
// default pool's counters.
func TestCancelReleasesEveryBlock(t *testing.T) {
	tr := synth.Generate(synth.QuickScenario(31))

	// The single-shard pipeline finishes with each block before the next
	// read, so it borrows a buffer-reusing BlockSource's frames and never
	// touches the pool at all.
	t.Run("shards=1/borrowed-blocks", func(t *testing.T) {
		before := netio.DefaultBlockPool().Stats()
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelAtBlockSource{cancelAtSource{inner: tr.Source(), at: len(tr.Packets) / 3, cancel: cancel}}
		_, err := NewEngine(EngineConfig{Shards: 1}).Run(ctx, src)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
		if gets := netio.DefaultBlockPool().Stats().Gets - before.Gets; gets != 0 {
			t.Fatalf("single-shard run took %d blocks from the pool, want 0", gets)
		}
	})

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d/readers=1", shards), func(t *testing.T) {
			for _, cutAt := range []int{1, len(tr.Packets) / 3, len(tr.Packets) - 2} {
				before := netio.DefaultBlockPool().Stats()
				eng := NewEngine(EngineConfig{
					Shards: shards,
					Flows:  flows.Config{ClientNets: synthClientNets()},
				})
				ctx, cancel := context.WithCancel(context.Background())
				src := &cancelAtSource{inner: tr.Source(), at: cutAt, cancel: cancel}
				_, err := eng.Run(ctx, src)
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("cutAt=%d: Run = %v, want nil or context.Canceled", cutAt, err)
				}
				after := netio.DefaultBlockPool().Stats()
				dg, dr := after.Gets-before.Gets, after.Retired-before.Retired
				if dg != dr {
					t.Fatalf("cutAt=%d: %d gets vs %d retires after cancel — leaked blocks",
						cutAt, dg, dr)
				}
			}
		})
	}
}

// cancelAtSource cancels the run's context from inside the read path once
// `at` packets have been delivered — the cancellation lands exactly while
// a ReadBlockRef block is being filled, the hardest point in the abort
// path.
type cancelAtSource struct {
	inner  netio.PacketSource
	at     int
	n      int
	cancel context.CancelFunc
}

func (c *cancelAtSource) Next() (netio.Packet, error) {
	if c.n == c.at {
		c.cancel()
		// Give the cancellation a moment to propagate so later reads race
		// the abort path rather than finishing first.
		time.Sleep(time.Millisecond)
	}
	c.n++
	return c.inner.Next()
}

// cancelAtBlockSource is cancelAtSource as a BlockSource that promises its
// frames only until the next read (it does not declare DataStable).
type cancelAtBlockSource struct{ cancelAtSource }

func (c *cancelAtBlockSource) ReadBlock(dst []netio.Packet) (int, error) {
	for n := range dst {
		pkt, err := c.Next()
		if err != nil {
			return n, err
		}
		dst[n] = pkt
	}
	return len(dst), nil
}
