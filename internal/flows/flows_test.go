package flows

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/tlswire"
)

var (
	client = netip.MustParseAddr("10.1.2.3")
	server = netip.MustParseAddr("203.0.113.50")
)

// pkt builds a decoded TCP packet.
func pkt(src, dst netip.Addr, sport, dport uint16, flags layers.TCPFlags, payload []byte) *layers.Decoded {
	return &layers.Decoded{
		HasIP: true, HasTCP: true,
		SrcIP: src, DstIP: dst, Proto: layers.IPProtocolTCP,
		SrcPort: sport, DstPort: dport, TCPFlags: flags, Payload: payload,
	}
}

func udpPkt(src, dst netip.Addr, sport, dport uint16, payload []byte) *layers.Decoded {
	return &layers.Decoded{
		HasIP: true, HasUDP: true,
		SrcIP: src, DstIP: dst, Proto: layers.IPProtocolUDP,
		SrcPort: sport, DstPort: dport, Payload: payload,
	}
}

// runHandshake pushes a full TCP connection carrying the given client
// payload and optional server payload, then closes it.
func runConn(t *Table, at time.Duration, dport uint16, c2s, s2c []byte) {
	t.Add(pkt(client, server, 40000, dport, layers.TCPSyn, nil), at, nil)
	t.Add(pkt(server, client, dport, 40000, layers.TCPSyn|layers.TCPAck, nil), at+time.Millisecond, nil)
	t.Add(pkt(client, server, 40000, dport, layers.TCPAck, nil), at+2*time.Millisecond, nil)
	if len(c2s) > 0 {
		t.Add(pkt(client, server, 40000, dport, layers.TCPAck|layers.TCPPsh, c2s), at+3*time.Millisecond, nil)
	}
	if len(s2c) > 0 {
		t.Add(pkt(server, client, dport, 40000, layers.TCPAck|layers.TCPPsh, s2c), at+4*time.Millisecond, nil)
	}
	t.Add(pkt(client, server, 40000, dport, layers.TCPFin|layers.TCPAck, nil), at+5*time.Millisecond, nil)
	t.Add(pkt(server, client, dport, 40000, layers.TCPFin|layers.TCPAck, nil), at+6*time.Millisecond, nil)
}

func TestBasicTCPFlow(t *testing.T) {
	tbl, records := recordingTable(Config{})
	req := []byte("GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n\r\n")
	runConn(tbl, 0, 80, req, []byte("HTTP/1.1 200 OK\r\n\r\n"))
	recs := records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Key.ClientIP != client || r.Key.ServerIP != server || r.Key.ServerPort != 80 {
		t.Fatalf("key = %v", r.Key)
	}
	if !r.SawSYN {
		t.Fatal("SYN not recorded")
	}
	if r.L7 != L7HTTP || r.HTTPHost != "www.example.com" {
		t.Fatalf("classification: %v %q", r.L7, r.HTTPHost)
	}
	if r.State != StateClosed {
		t.Fatalf("state = %v", r.State)
	}
	// c2s: SYN, ACK, data, FIN; s2c: SYN|ACK, data, FIN.
	if r.PktsC2S != 4 || r.PktsS2C != 3 {
		t.Fatalf("pkts = %d/%d", r.PktsC2S, r.PktsS2C)
	}
	if r.BytesC2S != uint64(len(req)) {
		t.Fatalf("bytes c2s = %d", r.BytesC2S)
	}
}

func TestTLSFlowWithSNIAndCert(t *testing.T) {
	tbl, records := recordingTable(Config{})
	chBody, err := (&tlswire.ClientHello{ServerName: "mail.google.com"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := tlswire.AppendRecord(nil, tlswire.RecordHandshake, chBody)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := tlswire.MarshalCertificate("*.google.com")
	if err != nil {
		t.Fatal(err)
	}
	certBody, err := (&tlswire.Certificate{Chain: [][]byte{leaf}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	shBody, err := (&tlswire.ServerHello{}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	flight, err := tlswire.AppendRecord(nil, tlswire.RecordHandshake, append(shBody, certBody...))
	if err != nil {
		t.Fatal(err)
	}
	runConn(tbl, 0, 443, ch, flight)
	recs := records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.L7 != L7TLS || r.SNI != "mail.google.com" {
		t.Fatalf("classification: %v %q", r.L7, r.SNI)
	}
	if !r.HasCert || r.CertName != "*.google.com" {
		t.Fatalf("cert = %v %q", r.HasCert, r.CertName)
	}
}

func TestBitTorrentClassification(t *testing.T) {
	tbl, records := recordingTable(Config{})
	hs := append([]byte{19}, []byte("BitTorrent protocol")...)
	hs = append(hs, make([]byte, 48)...)
	runConn(tbl, 0, 6881, hs, nil)
	recs := records()
	if len(recs) != 1 || recs[0].L7 != L7P2P {
		t.Fatalf("records = %+v", recs)
	}
}

func TestUDPDNSClassification(t *testing.T) {
	tbl, records := recordingTable(Config{})
	tbl.Add(udpPkt(client, server, 50000, 53, []byte{0, 1, 1, 0}), 0, nil)
	tbl.Add(udpPkt(server, client, 53, 50000, []byte{0, 1, 0x81, 0x80}), time.Millisecond, nil)
	tbl.FlushAll()
	recs := records()
	if len(recs) != 1 || recs[0].L7 != L7DNS {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].PktsC2S != 1 || recs[0].PktsS2C != 1 {
		t.Fatalf("direction accounting: %+v", recs[0])
	}
}

func TestRSTClosesFlow(t *testing.T) {
	tbl, records := recordingTable(Config{})
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPSyn, nil), 0, nil)
	tbl.Add(pkt(server, client, 80, 40000, layers.TCPRst, nil), time.Millisecond, nil)
	recs := records()
	if len(recs) != 1 || recs[0].State != StateReset {
		t.Fatalf("records = %+v", recs)
	}
	if tbl.Active() != 0 {
		t.Fatalf("active = %d", tbl.Active())
	}
}

func TestMidstreamOrientationByClientNets(t *testing.T) {
	nets := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}
	tbl, records := recordingTable(Config{ClientNets: nets})
	// First observed packet travels server -> client (no SYN).
	tbl.Add(pkt(server, client, 80, 40000, layers.TCPAck|layers.TCPPsh, []byte("HTTP/1.1 200 OK\r\n")), 0, nil)
	tbl.FlushAll()
	recs := records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Key.ClientIP != client || r.Key.ServerIP != server {
		t.Fatalf("orientation wrong: %v", r.Key)
	}
	if r.SawSYN {
		t.Fatal("midstream flow must not claim SYN")
	}
	if r.PktsS2C != 1 || r.PktsC2S != 0 {
		t.Fatalf("direction: %+v", r)
	}
}

func TestIdleTimeoutExpiry(t *testing.T) {
	tbl := NewTable(Config{IdleTimeout: time.Minute})
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPSyn, nil), 0, nil)
	tbl.FlushIdle(2 * time.Minute)
	if tbl.Active() != 0 {
		t.Fatalf("active = %d", tbl.Active())
	}
	if tbl.Stats().FlowsExpired != 1 {
		t.Fatalf("stats = %+v", tbl.Stats())
	}
}

func TestAmortizedSweepOnAdd(t *testing.T) {
	tbl := NewTable(Config{IdleTimeout: time.Minute})
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPSyn, nil), 0, nil)
	// A later unrelated packet triggers the sweep of the first, idle flow.
	other := netip.MustParseAddr("10.9.9.9")
	tbl.Add(pkt(other, server, 41000, 80, layers.TCPSyn, nil), 10*time.Minute, nil)
	if tbl.Stats().FlowsExpired != 1 {
		t.Fatalf("stats = %+v", tbl.Stats())
	}
}

func TestOnNewFiresOncePerFlow(t *testing.T) {
	tbl := NewTable(Config{})
	var calls []Key
	var syns []bool
	onNew := func(k Key, _ time.Duration, sawSYN bool, _ Handle) {
		calls = append(calls, k)
		syns = append(syns, sawSYN)
	}
	tbl.Add(pkt(client, server, 40000, 443, layers.TCPSyn, nil), 0, onNew)
	tbl.Add(pkt(server, client, 443, 40000, layers.TCPSyn|layers.TCPAck, nil), 1, onNew)
	tbl.Add(pkt(client, server, 40000, 443, layers.TCPAck, nil), 2, onNew)
	if len(calls) != 1 {
		t.Fatalf("onNew fired %d times", len(calls))
	}
	if !syns[0] {
		t.Fatal("pre-flow tag hook should see the SYN")
	}
	if calls[0].ClientIP != client {
		t.Fatalf("key = %v", calls[0])
	}
}

func TestOnRecordCallback(t *testing.T) {
	var got []Record
	tbl := NewTable(Config{OnRecord: func(r Record, _ Handle) { got = append(got, r) }})
	runConn(tbl, 0, 80, []byte("GET / HTTP/1.1\r\nHost: a.b\r\n\r\n"), nil)
	if len(got) != 1 {
		t.Fatalf("callback got %d records, want 1", len(got))
	}
}

func TestTwoConcurrentFlowsSameHosts(t *testing.T) {
	tbl, records := recordingTable(Config{})
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPSyn, nil), 0, nil)
	tbl.Add(pkt(client, server, 40001, 80, layers.TCPSyn, nil), 0, nil)
	if tbl.Active() != 2 {
		t.Fatalf("active = %d", tbl.Active())
	}
	tbl.FlushAll()
	if len(records()) != 2 {
		t.Fatalf("records = %d", len(records()))
	}
}

func TestKeyStringAndReverse(t *testing.T) {
	k := Key{ClientIP: client, ServerIP: server, ClientPort: 1, ServerPort: 2, Proto: layers.IPProtocolTCP}
	if k.Reverse().Reverse() != k {
		t.Fatal("Reverse not involutive")
	}
	if k.String() == "" {
		t.Fatal("empty String")
	}
}

// TestKeyEquals: the comparisons the table probes with agree with == on
// the whole key (equals) and on its Reverse (reverses) for keys that differ
// in any one field, IPv6 and 4-in-6 twin addresses included; a stored key
// unpacks to its key, a probe key reverses to its Reverse's probe key and
// hashes as it does. Every key is stored in one table, so the IPv6 ones
// are compared through their side cells.
func TestKeyEquals(t *testing.T) {
	k := Key{ClientIP: client, ServerIP: server, ClientPort: 1, ServerPort: 2, Proto: layers.IPProtocolTCP}
	v6 := Key{ClientIP: netip.MustParseAddr("fd00::1"), ServerIP: netip.MustParseAddr("2001:db8::1"), ClientPort: 1, ServerPort: 2, Proto: layers.IPProtocolTCP}
	variants := []Key{k, k.Reverse(), v6, v6.Reverse()}
	for _, edit := range []func(*Key){
		func(o *Key) { o.ClientIP = netip.MustParseAddr("10.1.2.4") },
		func(o *Key) { o.ClientIP = netip.AddrFrom16(client.As16()) },
		func(o *Key) { o.ServerIP = netip.AddrFrom16(server.As16()) },
		func(o *Key) { o.ClientIP = netip.MustParseAddr("fd00::1") },
		func(o *Key) { o.ServerIP = netip.MustParseAddr("203.0.113.51") },
		func(o *Key) { o.ClientPort = 3 },
		func(o *Key) { o.ServerPort = 3 },
		func(o *Key) { o.Proto = layers.IPProtocolUDP },
	} {
		for _, base := range []Key{k, v6} {
			o := base
			edit(&o)
			variants = append(variants, o, o.Reverse())
		}
	}
	tbl := NewTable(Config{})
	for _, a := range variants {
		pa := pack(&a)
		if pa.key() != a {
			t.Fatalf("%v packs and unpacks to %v", a, pa.key())
		}
		r := a.Reverse()
		rev := pa
		rev.reverse()
		if pr := pack(&r); rev != pr || pa.hash(7) != pr.hash(7) {
			t.Fatalf("%v: reversed probe key %+v, hash %x; want %+v, hash %x", a, rev, pa.hash(7), pr, pr.hash(7))
		}
		sa := &tbl.node(tbl.add(&pa, pa.hash(tbl.seed))).key
		if got := sa.key(&tbl.pairs); got != a {
			t.Fatalf("%v is stored as %v", a, got)
		}
		for _, b := range variants {
			pb := pack(&b)
			if got, want := sa.equals(&tbl.pairs, &pb), a == b; got != want {
				t.Fatalf("%v equals %v = %v, want %v", a, b, got, want)
			}
			if got, want := sa.reverses(&tbl.pairs, &pb), a == b.Reverse(); got != want {
				t.Fatalf("%v reverses %v = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestHTTPHostLowercased(t *testing.T) {
	tbl, records := recordingTable(Config{})
	runConn(tbl, 0, 80, []byte("GET / HTTP/1.1\r\nHost: WWW.Example.COM\r\n\r\n"), nil)
	if h := records()[0].HTTPHost; h != "www.example.com" {
		t.Fatalf("host = %q", h)
	}
}

func TestL7StringNames(t *testing.T) {
	for p, want := range map[L7Proto]string{L7HTTP: "HTTP", L7TLS: "TLS", L7P2P: "P2P", L7DNS: "DNS", L7Unknown: "OTHER"} {
		if p.String() != want {
			t.Fatalf("%v.String() = %q", p, p.String())
		}
	}
}

func TestIgnoresNonTransportPackets(t *testing.T) {
	tbl := NewTable(Config{})
	tbl.Add(&layers.Decoded{HasIP: true}, 0, nil)
	if tbl.Stats().Packets != 0 || tbl.Active() != 0 {
		t.Fatalf("stats = %+v", tbl.Stats())
	}
}

func TestSplitHTTPHeaderAcrossSegments(t *testing.T) {
	tbl, records := recordingTable(Config{})
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPSyn, nil), 0, nil)
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPAck|layers.TCPPsh, []byte("GET / HTTP/1.1\r\nHo")), 1, nil)
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPAck|layers.TCPPsh, []byte("st: split.example.com\r\n\r\n")), 2, nil)
	tbl.FlushAll()
	r := records()[0]
	if r.L7 != L7HTTP || r.HTTPHost != "split.example.com" {
		t.Fatalf("got %v %q", r.L7, r.HTTPHost)
	}
}

// recordingTable returns a table with cfg whose OnRecord collects every
// finished flow, and a func that returns the flows collected so far.
func recordingTable(cfg Config) (*Table, func() []Record) {
	var recs []Record
	cfg.OnRecord = func(r Record, _ Handle) { recs = append(recs, r) }
	return NewTable(cfg), func() []Record { return recs }
}

// TestFlushAllDrainsAndReuses: FlushAll emits every live flow once, least
// recently touched first, settling an HTTP Host whose line never ended and
// releasing every name reference; the table is then empty — no live flow,
// an empty index — and takes new flows, which a second FlushAll emits.
func TestFlushAllDrainsAndReuses(t *testing.T) {
	var recs []Record
	tbl := NewTable(Config{OnRecord: func(r Record, _ Handle) { recs = append(recs, r) }})
	label := tbl.names.ID("label.example")
	onNew := func(_ Key, _ time.Duration, _ bool, h Handle) { tbl.Tag(h).Label = label }
	const n = 50
	for i := range n {
		at := time.Duration(i) * time.Millisecond
		port := uint16(20000 + i)
		tbl.Add(pkt(client, server, port, 80, layers.TCPSyn, nil), at, onNew)
		// Half the flows send a request head cut inside its Host line: it
		// waits in the flow's prefix until the flush settles it.
		if i%2 == 0 {
			tbl.Add(pkt(client, server, port, 80, layers.TCPAck|layers.TCPPsh, []byte("GET / HTTP/1.1\r\nHost: Cut.Example")), at, nil)
		}
	}
	// Touch the first flows again: they move to the back of the order.
	for i := range 5 {
		tbl.Add(pkt(server, client, 80, uint16(20000+i), layers.TCPAck, nil), time.Second, nil)
	}
	var want []Key
	for i := tbl.head; i != noIdx; i = tbl.node(i).next {
		want = append(want, tbl.node(i).key.key(&tbl.pairs))
	}
	tbl.FlushAll()
	if len(recs) != n || len(want) != n {
		t.Fatalf("FlushAll emitted %d records of %d live flows, want %d", len(recs), len(want), n)
	}
	for i, r := range recs {
		if r.Key != want[i] {
			t.Fatalf("record %d is %v, want %v (recency order)", i, r.Key, want[i])
		}
		if port := r.Key.ClientPort; port%2 == 0 && r.HTTPHost != "cut.example" {
			t.Fatalf("flow from port %d: host %q, want the settled cut.example", port, r.HTTPHost)
		}
	}
	if tbl.Active() != 0 || tbl.head != noIdx || tbl.tail != noIdx || tbl.idx.Len() != 0 {
		t.Fatalf("after FlushAll: %d active, head %d, tail %d", tbl.Active(), tbl.head, tbl.tail)
	}
	if s := tbl.Stats(); s.FlowsCreated != n || s.FlowsClosed != n {
		t.Fatalf("stats %+v, want %d created and closed", s, n)
	}
	forceSweep(tbl.names)
	for id := range tbl.names.End() {
		if s := tbl.names.Str(id); s != "" {
			t.Fatalf("%q survives a sweep after FlushAll released every flow", s)
		}
	}

	recs = recs[:0]
	runConn(tbl, 2*time.Second, 80, []byte("GET / HTTP/1.1\r\nHost: again.example\r\n\r\n"), nil)
	tbl.Add(pkt(client, server, 30000, 443, layers.TCPSyn, nil), 3*time.Second, nil)
	if tbl.Active() != 1 {
		t.Fatalf("%d active after a closed and an open flow, want 1", tbl.Active())
	}
	tbl.FlushAll()
	if len(recs) != 2 || recs[0].HTTPHost != "again.example" || recs[1].Key.ServerPort != 443 || tbl.Active() != 0 {
		t.Fatalf("after reuse: records %+v, %d active", recs, tbl.Active())
	}
}

// pack returns k as a probe key.
func pack(k *Key) probeKey {
	var p probeKey
	p.set(k.ClientIP, k.ServerIP, k.ClientPort, k.ServerPort, k.Proto)
	return p
}
