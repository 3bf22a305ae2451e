package layers

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	ip4a = netip.MustParseAddr("10.0.0.1")
	ip4b = netip.MustParseAddr("192.168.1.77")
	ip6a = netip.MustParseAddr("2001:db8::1")
	ip6b = netip.MustParseAddr("2001:db8::2")
)

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst:       MACAddr{1, 2, 3, 4, 5, 6},
		Src:       MACAddr{7, 8, 9, 10, 11, 12},
		EtherType: EtherTypeIPv4,
	}
	payload := []byte("hello")
	raw := e.AppendTo(nil, payload)

	var got Ethernet
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Dst != e.Dst || got.Src != e.Src || got.EtherType != e.EtherType {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("payload mismatch: %q", got.Payload)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var e Ethernet
	if err := e.DecodeFromBytes(make([]byte, 13)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestMACString(t *testing.T) {
	m := MACAddr{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("got %q", m.String())
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4{TOS: 0x10, ID: 1234, TTL: 61, Protocol: IPProtocolTCP, Src: ip4a, Dst: ip4b}
	payload := []byte("payload bytes")
	raw, err := ip.AppendTo(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	var got IPv4
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Src != ip4a || got.Dst != ip4b || got.Protocol != IPProtocolTCP || got.TTL != 61 || got.ID != 1234 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !got.HeaderChecksumOK {
		t.Fatal("checksum did not verify")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	ip := IPv4{Protocol: IPProtocolUDP, Src: ip4a, Dst: ip4b}
	raw, err := ip.AppendTo(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw[8] ^= 0xff // corrupt TTL
	var got IPv4
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.HeaderChecksumOK {
		t.Fatal("corrupted header passed checksum")
	}
}

func TestIPv4TrailingBytesIgnored(t *testing.T) {
	// Ethernet padding after TotalLength must not leak into the payload.
	ip := IPv4{Protocol: IPProtocolTCP, Src: ip4a, Dst: ip4b}
	raw, err := ip.AppendTo(nil, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, 0, 0, 0, 0, 0, 0)
	var got IPv4
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "abc" {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestIPv4Malformed(t *testing.T) {
	cases := map[string][]byte{
		"short":       make([]byte, 10),
		"bad version": append([]byte{0x65}, make([]byte, 19)...),
		"bad ihl":     append([]byte{0x42}, make([]byte, 19)...),
	}
	for name, raw := range cases {
		var ip IPv4
		if err := ip.DecodeFromBytes(raw); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestIPv4RejectsV6Addr(t *testing.T) {
	ip := IPv4{Src: ip6a, Dst: ip4b}
	if _, err := ip.AppendTo(nil, nil); err == nil {
		t.Fatal("expected error for IPv6 address")
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	ip := IPv6{TrafficClass: 7, FlowLabel: 0xabcde, NextHeader: IPProtocolUDP, HopLimit: 33, Src: ip6a, Dst: ip6b}
	payload := []byte("v6 payload")
	raw, err := ip.AppendTo(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	var got IPv6
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Src != ip6a || got.Dst != ip6b || got.NextHeader != IPProtocolUDP ||
		got.HopLimit != 33 || got.TrafficClass != 7 || got.FlowLabel != 0xabcde {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestIPv6Malformed(t *testing.T) {
	var ip IPv6
	if err := ip.DecodeFromBytes(make([]byte, 39)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
	bad := make([]byte, 40)
	bad[0] = 0x45
	if err := ip.DecodeFromBytes(bad); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tc := TCP{SrcPort: 443, DstPort: 51234, Seq: 1000, Ack: 2000, Flags: TCPSyn | TCPAck, Window: 4096, Urgent: 1}
	payload := []byte("GET / HTTP/1.1\r\n")
	raw, err := tc.AppendTo(nil, payload, ip4a, ip4b)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyTCPChecksum(raw, ip4a, ip4b) {
		t.Fatal("TCP checksum did not verify")
	}
	var got TCP
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 443 || got.DstPort != 51234 || got.Seq != 1000 || got.Ack != 2000 ||
		got.Flags != TCPSyn|TCPAck || got.Window != 4096 || got.Urgent != 1 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestTCPChecksumCorruption(t *testing.T) {
	tc := TCP{SrcPort: 80, DstPort: 12345, Flags: TCPAck}
	raw, err := tc.AppendTo(nil, []byte("data"), ip4a, ip4b)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if VerifyTCPChecksum(raw, ip4a, ip4b) {
		t.Fatal("corrupted segment passed checksum")
	}
}

func TestTCPChecksumV6(t *testing.T) {
	tc := TCP{SrcPort: 443, DstPort: 40000, Flags: TCPSyn}
	raw, err := tc.AppendTo(nil, nil, ip6a, ip6b)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyTCPChecksum(raw, ip6a, ip6b) {
		t.Fatal("v6 TCP checksum did not verify")
	}
}

func TestTCPFlagsString(t *testing.T) {
	if s := (TCPSyn | TCPAck).String(); s != "SA" {
		t.Fatalf("got %q", s)
	}
	if s := TCPFlags(0).String(); s != "." {
		t.Fatalf("got %q", s)
	}
}

func TestTCPMalformed(t *testing.T) {
	var tc TCP
	if err := tc.DecodeFromBytes(make([]byte, 19)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
	bad := make([]byte, 20)
	bad[12] = 0x30 // data offset 12 bytes < 20
	if err := tc.DecodeFromBytes(bad); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 53, DstPort: 33333}
	payload := []byte{0x12, 0x34, 0x81, 0x80}
	raw, err := u.AppendTo(nil, payload, ip4a, ip4b)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyUDPChecksum(raw, ip4a, ip4b) {
		t.Fatal("UDP checksum did not verify")
	}
	var got UDP
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 53 || got.DstPort != 33333 || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestUDPTruncatedLength(t *testing.T) {
	u := UDP{SrcPort: 1, DstPort: 2}
	raw, err := u.AppendTo(nil, []byte("abcdef"), ip4a, ip4b)
	if err != nil {
		t.Fatal(err)
	}
	var got UDP
	if err := got.DecodeFromBytes(raw[:10]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestIPProtocolString(t *testing.T) {
	if IPProtocolTCP.String() != "tcp" || IPProtocolUDP.String() != "udp" {
		t.Fatal("protocol names")
	}
	if IPProtocol(200).String() == "" {
		t.Fatal("unknown protocol should render")
	}
}

func TestParserTCPv4(t *testing.T) {
	var b Builder
	frame, err := b.TCPFrame(ip4a, ip4b, 40000, 443, TCPSyn, 99, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	info, err := p.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasIP || !info.HasTCP || info.HasUDP {
		t.Fatalf("layer flags: %+v", info)
	}
	if info.SrcIP != ip4a || info.DstIP != ip4b || info.SrcPort != 40000 || info.DstPort != 443 {
		t.Fatalf("addressing: %+v", info)
	}
	if !info.TCPFlags.Has(TCPSyn) || info.Seq != 99 {
		t.Fatalf("tcp fields: %+v", info)
	}
	if p.Stats.TCPSegments != 1 || p.Stats.Frames != 1 {
		t.Fatalf("stats: %+v", p.Stats)
	}
}

func TestParserUDPv6(t *testing.T) {
	var b Builder
	payload := []byte("dns-ish")
	frame, err := b.UDPFrame(ip6a, ip6b, 53, 5353, payload)
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	info, err := p.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasUDP || info.SrcPort != 53 || !bytes.Equal(info.Payload, payload) {
		t.Fatalf("info: %+v", info)
	}
}

func TestParserUnhandledEtherType(t *testing.T) {
	e := Ethernet{EtherType: EtherTypeARP}
	frame := e.AppendTo(nil, make([]byte, 28))
	var p Parser
	if _, err := p.Parse(frame); !errors.Is(err, ErrUnhandled) {
		t.Fatalf("err = %v", err)
	}
	if p.Stats.NonIP != 1 {
		t.Fatalf("stats: %+v", p.Stats)
	}
}

func TestParserOtherProto(t *testing.T) {
	ip := IPv4{Protocol: IPProtocolICMP, Src: ip4a, Dst: ip4b}
	ipRaw, err := ip.AppendTo(nil, []byte{8, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	e := Ethernet{EtherType: EtherTypeIPv4}
	frame := e.AppendTo(nil, ipRaw)
	var p Parser
	if _, err := p.Parse(frame); !errors.Is(err, ErrUnhandled) {
		t.Fatalf("err = %v", err)
	}
	if p.Stats.OtherProto != 1 {
		t.Fatalf("stats: %+v", p.Stats)
	}
}

// fragmentFrame builds a non-first IPv4 fragment (offset 185 × 8 B) of
// proto whose data starts 9c 40 00 35 00 0c: read as a transport header,
// that is a well-formed port 40000 → 53 datagram of 12 bytes.
func fragmentFrame(t testing.TB, proto IPProtocol) []byte {
	t.Helper()
	data := []byte{0x9c, 0x40, 0x00, 0x35, 0x00, 0x0c, 0x00, 0x00, 1, 2, 3, 4}
	if proto == IPProtocolTCP {
		data = append(data, make([]byte, 20-len(data))...)
		data[12] = 5 << 4 // a plausible data offset
	}
	ip := IPv4{Protocol: proto, Src: ip4a, Dst: ip4b, FragOff: 185}
	ipRaw, err := ip.AppendTo(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	e := Ethernet{EtherType: EtherTypeIPv4}
	return e.AppendTo(nil, ipRaw)
}

// A non-first fragment carries the middle of a datagram, not a transport
// header: its leading bytes must not become ports, a DNS payload or a flow.
func TestParserSkipsNonFirstFragment(t *testing.T) {
	for _, proto := range []IPProtocol{IPProtocolUDP, IPProtocolTCP} {
		var p Parser
		if dec, err := p.Parse(fragmentFrame(t, proto)); !errors.Is(err, ErrUnhandled) {
			t.Fatalf("proto %d: fragment parsed as %+v, err %v; want ErrUnhandled", proto, dec, err)
		}
		if p.Stats.Fragments != 1 || p.Stats.UDPDatagram != 0 || p.Stats.TCPSegments != 0 || p.Stats.Malformed != 0 {
			t.Fatalf("proto %d: stats %+v", proto, p.Stats)
		}
		var sum ParserStats
		sum.Add(p.Stats)
		sum.Add(p.Stats)
		if sum.Fragments != 2 {
			t.Fatalf("Add sums Fragments to %d, want 2", sum.Fragments)
		}
	}
	// The first fragment (MF set, offset 0) does carry the header.
	var b Builder
	frame, err := b.UDPFrame(ip4a, ip4b, 40000, 53, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	frame[EthernetHeaderLen+6] |= 0x20 // more fragments
	var p Parser
	if dec, err := p.Parse(frame); err != nil || !dec.HasUDP || dec.DstPort != 53 {
		t.Fatalf("first fragment: %+v, %v", dec, err)
	}
}

func TestParserMalformedCounted(t *testing.T) {
	var p Parser
	if _, err := p.Parse([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error")
	}
	if p.Stats.Malformed != 1 {
		t.Fatalf("stats: %+v", p.Stats)
	}
}

func TestParserDoesNotChokeOnFuzzedFrames(t *testing.T) {
	// Property: arbitrary bytes never panic the parser.
	f := func(data []byte) bool {
		var p Parser
		_, _ = p.Parse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTCPRoundTripPayload(t *testing.T) {
	var b Builder
	var p Parser
	f := func(payload []byte, sport, dport uint16) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		frame, err := b.TCPFrame(ip4a, ip4b, sport, dport, TCPAck|TCPPsh, 1, 1, payload)
		if err != nil {
			return false
		}
		info, err := p.Parse(frame)
		if err != nil {
			return false
		}
		return info.SrcPort == sport && info.DstPort == dport && bytes.Equal(info.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParserTCP(b *testing.B) {
	var bl Builder
	frame, err := bl.TCPFrame(ip4a, ip4b, 40000, 443, TCPAck, 1, 1, make([]byte, 512))
	if err != nil {
		b.Fatal(err)
	}
	frameCopy := append([]byte(nil), frame...)
	var p Parser
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(frameCopy); err != nil {
			b.Fatal(err)
		}
	}
}

// VerifyTCPChecksum recomputes the checksum of a raw TCP segment against the
// given addresses; it returns true when the segment verifies.
func VerifyTCPChecksum(segment []byte, src, dst netip.Addr) bool {
	if len(segment) < TCPHeaderLen {
		return false
	}
	return transportChecksum(segment, src, dst, IPProtocolTCP) == 0
}

// VerifyUDPChecksum recomputes the checksum of a raw UDP datagram.
func VerifyUDPChecksum(segment []byte, src, dst netip.Addr) bool {
	if len(segment) < UDPHeaderLen {
		return false
	}
	if binary.BigEndian.Uint16(segment[6:8]) == 0 {
		return true // checksum disabled by sender
	}
	return transportChecksum(segment, src, dst, IPProtocolUDP) == 0
}

// transportChecksum sums 32-bit words; it must fold to what the plain
// RFC 1071 sum over 16-bit words gives, at every segment length and for
// both address families.
func TestTransportChecksumMatchesWordSum(t *testing.T) {
	reference := func(segment []byte, src, dst netip.Addr, proto IPProtocol) uint16 {
		sum := pseudoHeaderSum(src, dst, proto, len(segment))
		for ; len(segment) >= 2; segment = segment[2:] {
			sum += uint32(binary.BigEndian.Uint16(segment))
		}
		if len(segment) == 1 {
			sum += uint32(segment[0]) << 8
		}
		for sum > 0xffff {
			sum = sum&0xffff + sum>>16
		}
		return ^uint16(sum)
	}
	seg := make([]byte, 1500)
	for i := range seg {
		seg[i] = byte(i*131 + i>>3)
	}
	ones := bytes.Repeat([]byte{0xff}, 1500)
	for _, addrs := range [][2]netip.Addr{{ip4a, ip4b}, {ip6a, ip6b}} {
		for n := 0; n <= len(seg); n++ {
			for _, b := range [][]byte{seg[:n], ones[:n], seg[len(seg)-n:]} {
				want := reference(b, addrs[0], addrs[1], IPProtocolTCP)
				if got := transportChecksum(b, addrs[0], addrs[1], IPProtocolTCP); got != want {
					t.Fatalf("%v, %d bytes: checksum %#04x, want %#04x", addrs[0], n, got, want)
				}
			}
		}
	}
}
