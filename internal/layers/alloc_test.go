package layers

import (
	"net/netip"
	"testing"
)

// The parser is the innermost per-packet loop; it must not allocate on any
// success path, nor on the common unhandled-protocol skips.

func TestParseTCPZeroAlloc(t *testing.T) {
	var b Builder
	frame, err := b.TCPFrame(
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("192.0.2.10"),
		40000, 443, TCPAck, 7, 9, []byte("payload bytes"))
	if err != nil {
		t.Fatal(err)
	}
	frame = append([]byte(nil), frame...) // detach from the builder's buffer
	var p Parser
	if _, err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("TCP parse allocates %v/op, want 0", n)
	}
}

func TestParseUDPZeroAlloc(t *testing.T) {
	var b Builder
	frame, err := b.UDPFrame(
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("192.0.2.53"),
		40000, 53, []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	frame = append([]byte(nil), frame...)
	var p Parser
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("UDP parse allocates %v/op, want 0", n)
	}
}

func TestParseIPv6TCPZeroAlloc(t *testing.T) {
	var b Builder
	frame, err := b.TCPFrame(
		netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2"),
		40000, 443, TCPAck, 7, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame = append([]byte(nil), frame...)
	var p Parser
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("IPv6 TCP parse allocates %v/op, want 0", n)
	}
}

// Unhandled-but-well-formed frames (ARP, non-first fragments) and malformed
// ones are skipped per packet; a capture full of them must not allocate an
// error each.
func TestParseUnhandledZeroAlloc(t *testing.T) {
	eth := Ethernet{EtherType: EtherTypeARP}
	var b Builder
	udp, err := b.UDPFrame(ip4a, ip4b, 40000, 53, []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	udp = append([]byte(nil), udp...)
	tcp, err := b.TCPFrame(ip4a, ip4b, 40000, 443, TCPSyn, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tcp = append([]byte(nil), tcp...)
	ip := EthernetHeaderLen
	badIHL := append([]byte(nil), udp...)
	badIHL[ip] = 0x43
	badVersion := append([]byte(nil), udp...)
	badVersion[ip] = 0x65
	longTotal := append([]byte(nil), udp...)
	longTotal[ip+2] = 0xff
	longUDP := append([]byte(nil), udp...)
	longUDP[ip+IPv4HeaderLen+5] = 0xff
	badOffset := append([]byte(nil), tcp...)
	badOffset[ip+IPv4HeaderLen+12] = 0x20
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"arp", eth.AppendTo(nil, make([]byte, 28))},
		{"udp fragment", fragmentFrame(t, IPProtocolUDP)},
		{"tcp fragment", fragmentFrame(t, IPProtocolTCP)},
		{"runt", udp[:EthernetHeaderLen-1]},
		{"short ipv4", udp[:ip+IPv4HeaderLen-1]},
		{"ipv4 ihl", badIHL},
		{"ipv4 version", badVersion},
		{"ipv4 total length", longTotal},
		{"short udp", udp[:ip+IPv4HeaderLen+7]},
		{"udp length", longUDP},
		{"short tcp", tcp[:ip+IPv4HeaderLen+19]},
		{"tcp data offset", badOffset},
	} {
		var p Parser
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := p.Parse(tc.frame); err == nil {
				t.Fatalf("%s frame should be rejected", tc.name)
			}
		}); n != 0 {
			t.Fatalf("%s parse allocates %v/op, want 0", tc.name, n)
		}
	}
}

// The synthesizer builds every frame of a trace through one Builder; once
// its buffers are warm, neither frame method may allocate.
func TestBuilderZeroAlloc(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
	for _, tc := range []struct {
		name     string
		src, dst netip.Addr
	}{
		{"ipv4", ip4a, ip4b},
		{"ipv6", ip6a, ip6b},
	} {
		var b Builder
		tcp := func() {
			if _, err := b.TCPFrame(tc.src, tc.dst, 40000, 80, TCPAck|TCPPsh, 1, 1, payload); err != nil {
				t.Fatal(err)
			}
		}
		udp := func() {
			if _, err := b.UDPFrame(tc.dst, tc.src, 53, 40000, payload); err != nil {
				t.Fatal(err)
			}
		}
		tcp() // warm the buffers to the larger frame
		if n := testing.AllocsPerRun(1000, tcp); n != 0 {
			t.Errorf("%s TCPFrame allocates %v/op, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(1000, udp); n != 0 {
			t.Errorf("%s UDPFrame allocates %v/op, want 0", tc.name, n)
		}
	}
}
