package core

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
)

// The per-packet paths must not allocate once warm. These tests replay the
// traffic a pipeline sees most — DNS responses and payload-free TCP flows —
// through a warm single-shard DNHunter and through the sharded dispatch →
// ring → shard hand-off, and require zero heap allocations per pass.

// tcpFlow emits a payload-free TCP connection from client to server:
// handshake, one ACK, and a FIN from each side, which closes the flow so a
// replay of the trace recycles its slot.
func (tb *traceBuilder) tcpFlow(at time.Duration, client, server netip.Addr, cport uint16) {
	tb.t.Helper()
	segs := []struct {
		c2s   bool
		flags layers.TCPFlags
	}{
		{true, layers.TCPSyn},
		{false, layers.TCPSyn | layers.TCPAck},
		{true, layers.TCPAck},
		{true, layers.TCPFin | layers.TCPAck},
		{false, layers.TCPFin | layers.TCPAck},
	}
	for i, s := range segs {
		src, dst, sport, dport := client, server, cport, uint16(443)
		if !s.c2s {
			src, dst, sport, dport = server, client, 443, cport
		}
		f, err := tb.b.TCPFrame(src, dst, sport, dport, s.flags, 0, 0, nil)
		tb.add(at+time.Duration(i)*time.Millisecond, f, err)
	}
}

// allocTrace resolves one server per client, then opens a flow to it, plus
// one flow per client to a server no response named (the miss path).
func allocTrace(t *testing.T) []netio.Packet {
	tb := &traceBuilder{t: t}
	for c := range 8 {
		client := netip.AddrFrom4([4]byte{10, 0, 0, byte(c + 1)})
		srv := netip.AddrFrom4([4]byte{203, 0, 113, byte(c + 1)})
		at := time.Duration(c) * 10 * time.Millisecond
		tb.dnsResponse(at, client, fmt.Sprintf("host%d.example.com", c), srv)
		tb.tcpFlow(at+time.Millisecond, client, srv, 40000)
		tb.tcpFlow(at+2*time.Millisecond, client, srv2, 40001)
	}
	return tb.pkts
}

// replayAt copies pkts into block with every timestamp shifted by base, so
// successive passes keep trace time monotone.
func replayAt(block, pkts []netio.Packet, base time.Duration) []netio.Packet {
	for i, p := range pkts {
		block[i] = netio.Packet{Timestamp: base + p.Timestamp, Data: p.Data}
	}
	return block[:len(pkts)]
}

// checkReplayed asserts that every pass of allocTrace emitted its 16 flows,
// half of them labeled, so the measured passes did the full work.
func checkReplayed(t *testing.T, st Stats, passes int) {
	t.Helper()
	if want := uint64(passes * 16); st.Flows != want || st.LabeledFlows != want/2 {
		t.Fatalf("flows %d labeled %d over %d passes, want %d and %d", st.Flows, st.LabeledFlows, passes, want, want/2)
	}
}

func TestHandlePacketZeroAlloc(t *testing.T) {
	pkts := allocTrace(t)
	h := New(Config{
		Resolver:      resolverCfg(),
		OnTag:         func(TagEvent) {},
		OnDNSResponse: func(DNSEvent) {},
		OnFlow:        func(flowdb.LabeledFlow) {},
		DiscardDB:     true,
	})
	block := make([]netio.Packet, len(pkts))
	pass := 0
	replay := func() {
		pass++
		for _, p := range replayAt(block, pkts, time.Duration(pass)*time.Second) {
			h.HandlePacket(p)
		}
	}
	replay() // warm: slabs, tag slice, interner, resolver nodes
	if n := testing.AllocsPerRun(20, replay); n != 0 {
		t.Fatalf("warm HandlePacket pass allocates %v, want 0", n)
	}
	checkReplayed(t, h.Stats(), pass)
}

// TestShardedDispatchZeroAlloc drives the sharded hand-off synchronously:
// the dispatcher routes a read block onto the rings, then each shard
// consumes, processes and releases what was published.
func TestShardedDispatchZeroAlloc(t *testing.T) {
	pkts := allocTrace(t)
	const shards = 2
	const seed = 0x9e3779b97f4a7c15
	d := &dispatcher{rings: make([]*ring, shards), tracker: flows.NewTracker(nil, 0, seed)}
	d.idle = d.tracker.IdleTimeout()
	d.assign, d.expire = d.shardOf, d.enqueueExpire
	workers := make([]*shardWorker, shards)
	for i := range workers {
		d.rings[i] = newRing(ringDepth, defaultBatch)
		workers[i] = &shardWorker{
			h: New(Config{
				Resolver:  resolverCfg(),
				Flows:     flows.Config{DisableAutoSweep: true, Seed: seed},
				OnTag:     func(TagEvent) {},
				DiscardDB: true,
			}),
			ring: d.rings[i],
		}
	}
	block := make([]netio.Packet, len(pkts))
	pass := 0
	replay := func() {
		pass++
		d.dispatchBlock(replayAt(block, pkts, time.Duration(pass)*time.Second), nil)
		for _, w := range workers {
			for s := w.ring.tryConsume(); len(s) > 0; s = w.ring.tryConsume() {
				w.process(s)
				w.ring.release(s)
			}
		}
	}
	replay()
	if n := testing.AllocsPerRun(20, replay); n != 0 {
		t.Fatalf("warm dispatch→ring→shard pass allocates %v, want 0", n)
	}
	var st Stats
	for _, w := range workers {
		st.Add(w.h.Stats())
	}
	checkReplayed(t, st, pass)
}
