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
	tbl := NewTable(Config{})
	req := []byte("GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n\r\n")
	runConn(tbl, 0, 80, req, []byte("HTTP/1.1 200 OK\r\n\r\n"))
	recs := tbl.Records()
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
	tbl := NewTable(Config{})
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
	recs := tbl.Records()
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
	tbl := NewTable(Config{})
	hs := append([]byte{19}, []byte("BitTorrent protocol")...)
	hs = append(hs, make([]byte, 48)...)
	runConn(tbl, 0, 6881, hs, nil)
	recs := tbl.Records()
	if len(recs) != 1 || recs[0].L7 != L7P2P {
		t.Fatalf("records = %+v", recs)
	}
}

func TestUDPDNSClassification(t *testing.T) {
	tbl := NewTable(Config{})
	tbl.Add(udpPkt(client, server, 50000, 53, []byte{0, 1, 1, 0}), 0, nil)
	tbl.Add(udpPkt(server, client, 53, 50000, []byte{0, 1, 0x81, 0x80}), time.Millisecond, nil)
	tbl.FlushAll()
	recs := tbl.Records()
	if len(recs) != 1 || recs[0].L7 != L7DNS {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].PktsC2S != 1 || recs[0].PktsS2C != 1 {
		t.Fatalf("direction accounting: %+v", recs[0])
	}
}

func TestRSTClosesFlow(t *testing.T) {
	tbl := NewTable(Config{})
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPSyn, nil), 0, nil)
	tbl.Add(pkt(server, client, 80, 40000, layers.TCPRst, nil), time.Millisecond, nil)
	recs := tbl.Records()
	if len(recs) != 1 || recs[0].State != StateReset {
		t.Fatalf("records = %+v", recs)
	}
	if tbl.Active() != 0 {
		t.Fatalf("active = %d", tbl.Active())
	}
}

func TestMidstreamOrientationByClientNets(t *testing.T) {
	nets := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}
	tbl := NewTable(Config{ClientNets: nets})
	// First observed packet travels server -> client (no SYN).
	tbl.Add(pkt(server, client, 80, 40000, layers.TCPAck|layers.TCPPsh, []byte("HTTP/1.1 200 OK\r\n")), 0, nil)
	tbl.FlushAll()
	recs := tbl.Records()
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
	if len(got) != 1 || len(tbl.Records()) != 0 {
		t.Fatalf("callback got %d, frozen %d", len(got), len(tbl.Records()))
	}
}

func TestTwoConcurrentFlowsSameHosts(t *testing.T) {
	tbl := NewTable(Config{})
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPSyn, nil), 0, nil)
	tbl.Add(pkt(client, server, 40001, 80, layers.TCPSyn, nil), 0, nil)
	if tbl.Active() != 2 {
		t.Fatalf("active = %d", tbl.Active())
	}
	tbl.FlushAll()
	if len(tbl.Records()) != 2 {
		t.Fatalf("records = %d", len(tbl.Records()))
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

func TestHTTPHostLowercased(t *testing.T) {
	tbl := NewTable(Config{})
	runConn(tbl, 0, 80, []byte("GET / HTTP/1.1\r\nHost: WWW.Example.COM\r\n\r\n"), nil)
	if h := tbl.Records()[0].HTTPHost; h != "www.example.com" {
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
	tbl := NewTable(Config{})
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPSyn, nil), 0, nil)
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPAck|layers.TCPPsh, []byte("GET / HTTP/1.1\r\nHo")), 1, nil)
	tbl.Add(pkt(client, server, 40000, 80, layers.TCPAck|layers.TCPPsh, []byte("st: split.example.com\r\n\r\n")), 2, nil)
	tbl.FlushAll()
	r := tbl.Records()[0]
	if r.L7 != L7HTTP || r.HTTPHost != "split.example.com" {
		t.Fatalf("got %v %q", r.L7, r.HTTPHost)
	}
}

// Records returns flows finished while no OnRecord callback was set.
func (t *Table) Records() []Record { return t.frozen }
