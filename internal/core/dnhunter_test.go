package core

import (
	"io"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
	"repro/internal/resolver"
)

var (
	clientA = netip.MustParseAddr("10.0.0.1")
	clientB = netip.MustParseAddr("10.0.0.2")
	ldns    = netip.MustParseAddr("10.0.0.53")
	srv1    = netip.MustParseAddr("203.0.113.10")
	srv2    = netip.MustParseAddr("203.0.113.20")
)

// traceBuilder assembles an in-memory packet trace.
type traceBuilder struct {
	t    *testing.T
	b    layers.Builder
	pkts []netio.Packet
}

func (tb *traceBuilder) add(at time.Duration, frame []byte, err error) {
	tb.t.Helper()
	if err != nil {
		tb.t.Fatal(err)
	}
	tb.pkts = append(tb.pkts, netio.Packet{Timestamp: at, Data: append([]byte(nil), frame...)})
}

// dnsResponse emits a response from the LDNS to client for fqdn -> addrs.
func (tb *traceBuilder) dnsResponse(at time.Duration, client netip.Addr, fqdn string, addrs ...netip.Addr) {
	tb.t.Helper()
	var recs []dnswire.Record
	for _, a := range addrs {
		typ := dnswire.TypeA
		if a.Is6() && !a.Is4In6() {
			typ = dnswire.TypeAAAA
		}
		recs = append(recs, dnswire.Record{Name: fqdn, Type: typ, TTL: 60, Addr: a})
	}
	msg := dnswire.NewResponse(4242, fqdn, dnswire.TypeA, recs)
	raw, err := msg.Pack(nil)
	if err != nil {
		tb.t.Fatal(err)
	}
	frame, err := tb.b.UDPFrame(ldns, client, 53, 40053, raw)
	tb.add(at, frame, err)
}

// httpFlow emits a minimal TCP connection from client to server with an
// HTTP request.
func (tb *traceBuilder) httpFlow(at time.Duration, client, server netip.Addr, cport uint16, host string) {
	tb.t.Helper()
	f, err := tb.b.TCPFrame(client, server, cport, 80, layers.TCPSyn, 0, 0, nil)
	tb.add(at, f, err)
	f, err = tb.b.TCPFrame(server, client, 80, cport, layers.TCPSyn|layers.TCPAck, 0, 1, nil)
	tb.add(at+time.Millisecond, f, err)
	req := []byte("GET / HTTP/1.1\r\nHost: " + host + "\r\n\r\n")
	f, err = tb.b.TCPFrame(client, server, cport, 80, layers.TCPAck|layers.TCPPsh, 1, 1, req)
	tb.add(at+2*time.Millisecond, f, err)
	f, err = tb.b.TCPFrame(client, server, cport, 80, layers.TCPFin|layers.TCPAck, 2, 1, nil)
	tb.add(at+3*time.Millisecond, f, err)
	f, err = tb.b.TCPFrame(server, client, 80, cport, layers.TCPFin|layers.TCPAck, 1, 3, nil)
	tb.add(at+4*time.Millisecond, f, err)
}

func (tb *traceBuilder) source() netio.PacketSource {
	return netio.NewSlicePacketSource(tb.pkts)
}

// feed drains src through h one packet at a time and flushes at EOF: the
// single-threaded pipeline with no engine around it.
func feed(t testing.TB, h *DNHunter, src netio.PacketSource) {
	t.Helper()
	for {
		pkt, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		h.HandlePacket(pkt)
	}
	h.Close()
}

func TestEndToEndLabeling(t *testing.T) {
	tb := &traceBuilder{t: t}
	tb.dnsResponse(0, clientA, "www.example.com", srv1, srv2)
	tb.httpFlow(500*time.Millisecond, clientA, srv1, 40000, "www.example.com")
	tb.httpFlow(700*time.Millisecond, clientA, srv2, 40001, "www.example.com")

	h := New(Config{Resolver: resolverCfg()})
	feed(t, h, tb.source())
	db := h.DB()
	if db.Len() != 2 {
		t.Fatalf("flows = %d", db.Len())
	}
	for _, f := range db.All() {
		if !f.Labeled || f.Label != "www.example.com" {
			t.Fatalf("flow not labeled: %+v", f)
		}
		if !f.PreFlow {
			t.Fatal("label should be available at SYN time")
		}
	}
	st := h.Stats()
	if st.DNSResponses != 1 || st.LabeledFlows != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientScopedLabeling(t *testing.T) {
	tb := &traceBuilder{t: t}
	tb.dnsResponse(0, clientA, "a.example.com", srv1)
	tb.dnsResponse(time.Millisecond, clientB, "b.example.com", srv1)
	tb.httpFlow(time.Second, clientA, srv1, 40000, "a.example.com")
	tb.httpFlow(time.Second, clientB, srv1, 41000, "b.example.com")

	h := New(Config{Resolver: resolverCfg()})
	feed(t, h, tb.source())
	labels := map[netip.Addr]string{}
	for _, f := range h.DB().All() {
		labels[f.Key.ClientIP] = f.Label
	}
	if labels[clientA] != "a.example.com" || labels[clientB] != "b.example.com" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestMissWithoutDNS(t *testing.T) {
	tb := &traceBuilder{t: t}
	tb.httpFlow(0, clientA, srv1, 40000, "nodns.example.com")
	h := New(Config{Resolver: resolverCfg()})
	feed(t, h, tb.source())
	f := h.DB().All()[0]
	if f.Labeled || f.Label != "" {
		t.Fatalf("unexpected label: %+v", f)
	}
}

func TestFirstFlowDelayMeasured(t *testing.T) {
	tb := &traceBuilder{t: t}
	tb.dnsResponse(time.Second, clientA, "www.example.com", srv1)
	tb.httpFlow(time.Second+300*time.Millisecond, clientA, srv1, 40000, "www.example.com")
	tb.httpFlow(5*time.Second, clientA, srv1, 40007, "www.example.com")

	h := New(Config{Resolver: resolverCfg()})
	feed(t, h, tb.source())
	var first, second *struct {
		delay time.Duration
		fresh bool
	}
	for _, f := range h.DB().All() {
		v := &struct {
			delay time.Duration
			fresh bool
		}{f.DNSDelay, f.FirstAfterDNS}
		if f.Start < 2*time.Second {
			first = v
		} else {
			second = v
		}
	}
	if first == nil || !first.fresh || first.delay != 300*time.Millisecond {
		t.Fatalf("first flow: %+v", first)
	}
	if second == nil || second.fresh {
		t.Fatalf("second flow should not be FirstAfterDNS: %+v", second)
	}
	if second.delay != 4*time.Second {
		t.Fatalf("second delay = %v", second.delay)
	}
}

func TestUselessDNSCounted(t *testing.T) {
	tb := &traceBuilder{t: t}
	tb.dnsResponse(0, clientA, "used.example.com", srv1)
	tb.dnsResponse(0, clientA, "prefetch.example.com", srv2) // never followed
	tb.httpFlow(time.Second, clientA, srv1, 40000, "used.example.com")

	h := New(Config{Resolver: resolverCfg()})
	feed(t, h, tb.source())
	st := h.Stats()
	if st.DNSResponses != 2 || st.UsedEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if f := st.UselessDNSFraction(); f != 0.5 {
		t.Fatalf("useless = %v", f)
	}
}

func TestOnTagPolicyHookAtSYN(t *testing.T) {
	tb := &traceBuilder{t: t}
	tb.dnsResponse(0, clientA, "games.zynga.com", srv1)
	tb.httpFlow(time.Second, clientA, srv1, 40000, "games.zynga.com")

	policy := NewPolicy(
		Rule{Pattern: "zynga.com", Action: ActionBlock},
		Rule{Pattern: "dropbox.com", Action: ActionPrioritize},
	)
	var events []TagEvent
	var actions []Action
	h := New(Config{
		Resolver: resolverCfg(),
		OnTag: func(e TagEvent) {
			events = append(events, e)
			actions = append(actions, policy.Decide(e.Label))
		},
	})
	feed(t, h, tb.source())
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	e := events[0]
	if !e.Hit || e.Label != "games.zynga.com" || !e.SYN {
		t.Fatalf("event = %+v", e)
	}
	if actions[0] != ActionBlock {
		t.Fatalf("action = %v", actions[0])
	}
}

func TestDNSEventCallback(t *testing.T) {
	tb := &traceBuilder{t: t}
	tb.dnsResponse(time.Minute, clientA, "x.example.com", srv1, srv2)
	var got []DNSEvent
	h := New(Config{Resolver: resolverCfg(), OnDNSResponse: func(e DNSEvent) { got = append(got, e) }})
	feed(t, h, tb.source())
	if len(got) != 1 || got[0].FQDN != "x.example.com" || got[0].NumAddrs != 2 || got[0].Client != clientA {
		t.Fatalf("events = %+v", got)
	}
}

func TestMalformedDNSCounted(t *testing.T) {
	tb := &traceBuilder{t: t}
	frame, err := tb.b.UDPFrame(ldns, clientA, 53, 40053, []byte{1, 2, 3})
	tb.add(0, frame, err)
	h := New(Config{Resolver: resolverCfg()})
	feed(t, h, tb.source())
	if st := h.Stats(); st.DNSMalformed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDNSQueryIgnored(t *testing.T) {
	tb := &traceBuilder{t: t}
	q := &dnswire.Message{
		Header:    dnswire.Header{ID: 7, RecursionDesired: true},
		Questions: []dnswire.Question{{Name: "x.example.com", Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	raw, err := q.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := tb.b.UDPFrame(clientA, ldns, 40053, 53, raw)
	tb.add(0, frame, err)
	h := New(Config{Resolver: resolverCfg()})
	feed(t, h, tb.source())
	if st := h.Stats(); st.DNSResponses != 0 || st.DNSMalformed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTruthSidecar(t *testing.T) {
	tb := &traceBuilder{t: t}
	tb.httpFlow(0, clientA, srv1, 40000, "h.example.com")
	h := New(Config{
		Resolver: resolverCfg(),
		Truth:    func(k flows.Key) string { return "truth.example.com" },
	})
	feed(t, h, tb.source())
	if got := h.DB().All()[0].Truth; got != "truth.example.com" {
		t.Fatalf("truth = %q", got)
	}
}

func resolverCfg() resolver.Config {
	return resolver.Config{ClistSize: 1024}
}
