package core

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
	"repro/internal/tlswire"
)

// The per-packet paths must not allocate once warm. These tests replay the
// traffic a pipeline sees most — DNS responses, payload-free TCP flows, and
// flows whose payload the L7 classifier reads (HTTP Host, TLS SNI and
// certificate, BitTorrent) — through a warm single-shard DNHunter and
// through the sharded dispatch → ring → shard hand-off, and require zero
// heap allocations per pass.

// tcpFlow emits a TCP connection from client to server: handshake, one ACK,
// the c2s then s2c payloads when non-empty, and a FIN from each side, which
// closes the flow so a replay of the trace recycles its slot.
func (tb *traceBuilder) tcpFlow(at time.Duration, client, server netip.Addr, cport, sport uint16, c2s, s2c []byte) {
	tb.t.Helper()
	segs := []struct {
		c2s     bool
		flags   layers.TCPFlags
		payload []byte
	}{
		{true, layers.TCPSyn, nil},
		{false, layers.TCPSyn | layers.TCPAck, nil},
		{true, layers.TCPAck, nil},
		{true, layers.TCPAck | layers.TCPPsh, c2s},
		{false, layers.TCPAck | layers.TCPPsh, s2c},
		{true, layers.TCPFin | layers.TCPAck, nil},
		{false, layers.TCPFin | layers.TCPAck, nil},
	}
	for i, s := range segs {
		if len(s.payload) == 0 && s.flags&layers.TCPPsh != 0 {
			continue
		}
		src, dst, sp, dp := client, server, cport, sport
		if !s.c2s {
			src, dst, sp, dp = server, client, sport, cport
		}
		f, err := tb.b.TCPFrame(src, dst, sp, dp, s.flags, 0, 0, s.payload)
		tb.add(at+time.Duration(i)*time.Millisecond, f, err)
	}
}

// tlsFlight frames handshake messages in one TLS record.
func tlsFlight(t *testing.T, msgs ...interface{ Marshal() ([]byte, error) }) []byte {
	var body []byte
	for _, m := range msgs {
		b, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, b...)
	}
	rec, err := tlswire.AppendRecord(nil, tlswire.RecordHandshake, body)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// Per pass, allocTrace emits flowsPerPass flows, labeledPerPass of them to
// a resolved server.
const flowsPerPass, labeledPerPass = 8 * 6, 8 * 5

// allocTrace resolves one server per client, then opens flows to it: one
// payload-free, and one each carrying an HTTP request with a Host header
// and a response body, a TLS ClientHello with SNI answered by a
// ServerHello and Certificate, a ClientHello without SNI, and a BitTorrent
// handshake. One more payload-free flow per client goes to a server no
// response named (the miss path).
func allocTrace(t *testing.T) []netio.Packet {
	tb := &traceBuilder{t: t}
	der, err := tlswire.MarshalCertificate("*.example.com")
	if err != nil {
		t.Fatal(err)
	}
	bt := append([]byte{19}, "BitTorrent protocol"...)
	bt = append(bt, make([]byte, 48)...)
	for c := range 8 {
		client := netip.AddrFrom4([4]byte{10, 0, 0, byte(c + 1)})
		srv := netip.AddrFrom4([4]byte{203, 0, 113, byte(c + 1)})
		host := fmt.Sprintf("host%d.example.com", c)
		at := time.Duration(c) * 100 * time.Millisecond
		tb.dnsResponse(at, client, host, srv)
		tb.tcpFlow(at+time.Millisecond, client, srv, 40000, 443, nil, nil)
		tb.tcpFlow(at+2*time.Millisecond, client, srv2, 40001, 443, nil, nil)
		tb.tcpFlow(at+10*time.Millisecond, client, srv, 40002, 80,
			[]byte("GET / HTTP/1.1\r\nHost: "+host+"\r\n\r\n"),
			append([]byte("HTTP/1.1 200 OK\r\nContent-Length: 1200\r\n\r\n"), make([]byte, 1200)...))
		tb.tcpFlow(at+20*time.Millisecond, client, srv, 40003, 443,
			tlsFlight(t, &tlswire.ClientHello{ServerName: host}),
			tlsFlight(t, &tlswire.ServerHello{}, &tlswire.Certificate{Chain: [][]byte{der}}))
		tb.tcpFlow(at+30*time.Millisecond, client, srv, 40004, 443,
			tlsFlight(t, &tlswire.ClientHello{}), tlsFlight(t, &tlswire.ServerHello{}))
		tb.tcpFlow(at+40*time.Millisecond, client, srv, 40005, 6881, bt, bt)
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

// checkReplayed asserts that every pass of allocTrace emitted all its
// flows, and labeled those to resolved servers, so the measured passes did
// the full work.
func checkReplayed(t *testing.T, st Stats, passes int) {
	t.Helper()
	if st.Flows != uint64(passes*flowsPerPass) || st.LabeledFlows != uint64(passes*labeledPerPass) {
		t.Fatalf("flows %d labeled %d over %d passes, want %d and %d",
			st.Flows, st.LabeledFlows, passes, passes*flowsPerPass, passes*labeledPerPass)
	}
}

func TestHandlePacketZeroAlloc(t *testing.T) {
	pkts := allocTrace(t)
	h := New(Config{
		Resolver:      resolverCfg(),
		OnTag:         func(TagEvent) {},
		OnDNSResponse: func(DNSEvent) {},
		OnFlow:        func(flowdb.LabeledFlow) {},
	})
	block := make([]netio.Packet, len(pkts))
	pass := 0
	replay := func() {
		pass++
		h.DB().Reset() // each pass fills a recycled DB, as a serve window does
		for _, p := range replayAt(block, pkts, time.Duration(pass)*time.Second) {
			h.HandlePacket(p)
		}
	}
	replay() // warm: slabs, tag slice, interner, resolver nodes, DB
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
				Resolver: resolverCfg(),
				Flows:    flows.Config{DisableAutoSweep: true, Seed: seed},
				OnTag:    func(TagEvent) {},
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
			w.h.DB().Reset()
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

// TestFreshNameOneAlloc pins the name path of a shard: a fresh name costs
// one allocation, the DNS decoder's, however many of the shard's flows
// carry it. Each iteration answers a fresh name, then opens an HTTP flow
// (Host: the name in upper case) and a TLS flow (SNI: the name) to the
// answer; each record's name must be its label's own string. Two more
// checks tell the mechanisms apart: a name table sweep between a response
// and its flows keeps the name its Clist entry references, and a flow no
// response labeled reads the decoder's string from the one name table the
// shard keeps.
func TestFreshNameOneAlloc(t *testing.T) {
	const warm, runs = 1100, 100 // warm fills the 1024-slot Clist
	tb := &traceBuilder{t: t}
	type iter struct{ dns, flows []netio.Packet }
	// AllocsPerRun steps once more than runs; two more iterations follow.
	iters := make([]iter, warm+runs+3)
	names := make([]string, len(iters))
	for i := range iters {
		names[i] = fmt.Sprintf("fresh%05d.example.com", i)
		at := time.Duration(i) * 100 * time.Millisecond
		tb.pkts = nil
		tb.dnsResponse(at, clientA, names[i], srv1)
		iters[i].dns = tb.pkts
		tb.pkts = nil
		tb.tcpFlow(at+time.Millisecond, clientA, srv1, 40000, 80,
			[]byte("GET / HTTP/1.1\r\nHost: "+strings.ToUpper(names[i])+"\r\n\r\n"), nil)
		tb.tcpFlow(at+10*time.Millisecond, clientA, srv1, 40001, 443,
			tlsFlight(t, &tlswire.ClientHello{ServerName: names[i]}), nil)
		iters[i].flows = tb.pkts
	}
	var recs, reused int
	var last flowdb.LabeledFlow
	h := New(Config{
		Resolver: resolverCfg(),
		OnFlow: func(lf flowdb.LabeledFlow) {
			recs++
			name := lf.HTTPHost
			if lf.L7 == flows.L7TLS {
				name = lf.SNI
			}
			if lf.Labeled && name == lf.Label && unsafe.StringData(name) == unsafe.StringData(lf.Label) {
				reused++
			}
			last = lf
		},
	})
	feedAll := func(pkts []netio.Packet) {
		for _, p := range pkts {
			h.HandlePacket(p)
		}
	}
	i := 0
	step := func() {
		h.DB().Reset()
		feedAll(iters[i].dns)
		feedAll(iters[i].flows)
		i++
	}
	for range warm {
		step()
	}
	if n := testing.AllocsPerRun(runs, step); n != 1 {
		t.Fatalf("a fresh name with an HTTP and a TLS flow allocates %v per iteration, want 1", n)
	}
	if recs != 2*i || reused != recs {
		t.Fatalf("%d of %d records carry their label's own string, want all of %d", reused, recs, 2*i)
	}

	// The name table sweeps between a response and its flows: the Clist
	// entry holding the name keeps it filed, under the same ID, while the
	// names nothing holds go.
	feedAll(iters[i].dns)
	id := h.dnsMsg.QuestionID()
	junk := h.names.Intern([]byte("junk0"))
	for j := 1; h.names.Str(junk) != ""; j++ {
		h.names.Intern(fmt.Appendf(nil, "junk%d", j))
		h.names.Collect()
	}
	if h.names.Str(id) != names[i] {
		t.Fatalf("the sweep freed the held name %q (ID %d now %q)", names[i], id, h.names.Str(id))
	}
	feedAll(iters[i].flows)
	i++
	if recs != 2*i || reused != recs {
		t.Fatalf("after a sweep, %d of %d records carry their label's own string", reused, recs)
	}

	// A flow no response labeled names a resolved host: the classifier
	// finds the decoder's string in the shard's one intern table.
	feedAll(iters[i].dns)
	feedAll(iters[i].flows)
	label := last.Label
	tb.pkts = nil
	tb.tcpFlow(time.Duration(i)*100*time.Millisecond+50*time.Millisecond, clientA, srv2, 40002, 443,
		tlsFlight(t, &tlswire.ClientHello{ServerName: names[i]}), nil)
	feedAll(tb.pkts)
	if last.Labeled || last.SNI != label || unsafe.StringData(last.SNI) != unsafe.StringData(label) {
		t.Fatalf("a miss's SNI %q is not the decoder's string %q", last.SNI, label)
	}
}
