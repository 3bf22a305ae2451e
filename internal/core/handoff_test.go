package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
	"repro/internal/synth"
)

// The hand-off contract of the sharded engine, from the outside: an entry
// is visible to its shard as soon as the read that carried it has been
// dispatched — it never waits for later traffic — while a ring's capacity
// and the blocks its entries pin are independent of how small the reads
// are. The ring-level halves of these live in ring_test.go.

// blockFunc is a packet source whose every read is one call of the
// function: it may return fewer packets than asked for (a short read) and
// may block (a quiet link). It has no ReadBlockRef, so the sharded engine
// copies its frames into pooled blocks, as it does for a capture.
type blockFunc func(dst []netio.Packet) (int, error)

func (f blockFunc) ReadBlock(dst []netio.Packet) (int, error) { return f(dst) }

func (f blockFunc) Next() (netio.Packet, error) {
	var one [1]netio.Packet
	if _, err := f(one[:]); err != nil {
		return netio.Packet{}, err
	}
	return one[0], nil
}

// hung bounds the waits below. It is a deadlock detector, not a latency
// threshold: every wait it guards ends within microseconds when the
// hand-off works and never when it does not.
const hung = 30 * time.Second

// TestTagNeverWaitsForLaterTraffic is the stranded-entry regression: the
// source hands out one short read — a DNS response and the SYN of the
// server it resolved — and then blocks inside its next read, like a capture
// on a link gone quiet, until the sink has seen the SYN's tag. A hand-off
// that publishes only full batches (or only on the next read's return)
// never delivers it.
func TestTagNeverWaitsForLaterTraffic(t *testing.T) {
	const fqdn = "www.example.com"
	tb := &traceBuilder{t: t}
	tb.dnsResponse(time.Second, clientA, fqdn, srv1)
	syn, err := tb.b.TCPFrame(clientA, srv1, 40001, 443, layers.TCPSyn, 0, 0, nil)
	tb.add(time.Second+10*time.Millisecond, syn, err)

	for _, mode := range []string{"batch", "serve"} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d/readers=1", mode, shards), func(t *testing.T) {
				tagged := make(chan struct{})
				var label string
				sink := &FuncSink{Tag: func(e TagEvent) {
					label = e.Label
					close(tagged)
				}}
				sent := false
				src := blockFunc(func(dst []netio.Packet) (int, error) {
					if !sent {
						sent = true
						return copy(dst, tb.pkts), nil
					}
					select {
					case <-tagged:
					case <-time.After(hung):
						t.Error("the source has been blocked in the read after the SYN and the SYN is still untagged: its entry is stranded")
					}
					return 0, io.EOF
				})
				cfg := EngineConfig{
					Shards: shards,
					Flows:  flows.Config{ClientNets: synthClientNets()},
					Sink:   sink,
				}
				var err error
				if mode == "serve" {
					_, err = NewServer(cfg, ServeConfig{}).Serve(context.Background(), src)
				} else {
					_, err = NewEngine(cfg).Run(context.Background(), src)
				}
				if err != nil {
					t.Fatal(err)
				}
				if label != fqdn {
					t.Fatalf("SYN tagged %q, want %q (the DNS response shares its read)", label, fqdn)
				}
			})
		}
	}
}

// TestShedOnlyWhenRingFull serves one flow's packets, trickled in reads of
// 1–3, to a shard stalled inside its sink: shedding may start only once
// ringDepth×batch entries are queued on that shard's ring — capacity is
// counted in entries, not in reads — and from then on every packet is shed
// rather than stalling the reader. The first packet opens a window, so the
// window command it puts on the ring ahead of it takes one entry.
func TestShedOnlyWhenRingFull(t *testing.T) {
	const (
		batch    = 16
		capacity = ringDepth * batch
		fits     = capacity - 1 // packets queued behind the window command
		extra    = 7
	)
	tb := &traceBuilder{t: t}
	f, err := tb.b.TCPFrame(clientA, srv1, 40001, 80, layers.TCPSyn, 0, 0, nil)
	tb.add(time.Second, f, err)
	for i := 1; i < capacity+extra; i++ {
		f, err = tb.b.TCPFrame(clientA, srv1, 40001, 80, layers.TCPAck|layers.TCPPsh, uint32(i), 1, []byte("x"))
		tb.add(time.Second+time.Duration(i)*time.Microsecond, f, err)
	}

	// The shard takes the window command and the SYN first and stays
	// inside its tag callback, holding what it consumed unreleased, until
	// the source is done.
	resume := make(chan struct{})
	sink := &FuncSink{Tag: func(TagEvent) { <-resume }}
	srv := NewServer(EngineConfig{Shards: 2, batch: batch, Sink: sink}, ServeConfig{Shed: true})
	shed := &srv.Metrics().Shed
	next, reads := 0, 0
	src := blockFunc(func(dst []netio.Packet) (int, error) {
		// Every packet handed out so far has been dispatched.
		got := shed.Totals().Flows
		if next <= fits && got != 0 {
			t.Errorf("%d packets shed with %d of %d entries queued", got, next+1, capacity)
		}
		if next == len(tb.pkts) {
			if got != extra+1 {
				t.Errorf("%d packets shed past a full ring, want %d", got, extra+1)
			}
			close(resume)
			return 0, io.EOF
		}
		reads++
		n := 1 + reads%3
		if next < fits {
			n = min(n, fits-next) // one read ends exactly on the full ring
		}
		n = copy(dst[:min(n, len(dst))], tb.pkts[next:])
		next += n
		return n, nil
	})
	rep, err := srv.Serve(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Flows != 1 {
		t.Fatalf("%d flows, want the one trickled flow", rep.Stats.Flows)
	}
}

// TestTrickleRecyclesBlocks feeds a sharded engine a quiet link — reads of
// 1–4 packets, each arriving once the shards have dealt with the last — and
// audits the block pool at every read. Each read takes a pooled block, so a
// hand-off that parks entries until a batch fills pins hundreds of mostly
// empty blocks and allocates more; here the blocks in flight stay within a
// small constant and, past warm-up, nothing is allocated. Not parallel: the
// audit reads the shared default pool's counters.
func TestTrickleRecyclesBlocks(t *testing.T) {
	const (
		inFlightMax = 2
		warmup      = 256 // reads
	)
	tr := synth.Generate(synth.QuickScenario(47))
	pool := netio.DefaultBlockPool()
	before := pool.Stats()
	var warm netio.BlockPoolStats
	next, reads := 0, 0
	src := blockFunc(func(dst []netio.Packet) (int, error) {
		// The reader has returned its own reference, so whatever is out is
		// pinned by ring entries. Shards keeping up is the premise: give
		// them until the deadlock bound to get there.
		for start := time.Now(); ; runtime.Gosched() {
			st := pool.Stats()
			out := (st.Gets - before.Gets) - (st.Retired - before.Retired)
			if out <= inFlightMax {
				break
			}
			if time.Since(start) > hung {
				t.Errorf("read %d: %d blocks still pinned by ring entries, want at most %d", reads, out, inFlightMax)
				return 0, io.EOF
			}
		}
		if reads == warmup {
			warm = pool.Stats()
		}
		reads++
		n := copy(dst[:min(1+reads%4, len(dst))], tr.Packets[next:])
		next += n
		if n == 0 {
			return 0, io.EOF
		}
		return n, nil
	})
	if _, err := NewEngine(EngineConfig{Shards: 2}).Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	if reads <= warmup {
		t.Fatalf("trace ended after %d reads, inside the warm-up", reads)
	}
	after := pool.Stats()
	if after.Allocs != warm.Allocs {
		t.Errorf("%d blocks allocated over %d reads after warm-up, want none",
			after.Allocs-warm.Allocs, reads-warmup)
	}
	if gets, retired := after.Gets-before.Gets, after.Retired-before.Retired; gets != retired {
		t.Errorf("%d gets vs %d retires at the end of the run", gets, retired)
	}
}
