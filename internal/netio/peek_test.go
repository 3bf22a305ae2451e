package netio

import (
	"encoding/binary"
	"testing"

	"repro/internal/layers"
)

// Frame builders for the peek/parse agreement corpus.

func ip4Frame(proto byte, transport []byte) []byte {
	f := make([]byte, 14+20+len(transport))
	binary.BigEndian.PutUint16(f[12:14], 0x0800)
	ip := f[14:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:4], uint16(20+len(transport)))
	ip[8] = 64 // TTL
	ip[9] = proto
	copy(ip[12:16], []byte{10, 0, 0, 1})
	copy(ip[16:20], []byte{10, 0, 1, 2})
	copy(ip[20:], transport)
	return f
}

func ip6Frame(proto byte, transport []byte) []byte {
	f := make([]byte, 14+40+len(transport))
	binary.BigEndian.PutUint16(f[12:14], 0x86DD)
	ip := f[14:]
	ip[0] = 0x60
	binary.BigEndian.PutUint16(ip[4:6], uint16(len(transport)))
	ip[6] = proto
	ip[7] = 64 // hop limit
	ip[23] = 1 // src ::1
	ip[39] = 2 // dst ::2
	copy(ip[40:], transport)
	return f
}

func udpSeg(sport, dport uint16, payload []byte) []byte {
	s := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint16(s[0:2], sport)
	binary.BigEndian.PutUint16(s[2:4], dport)
	binary.BigEndian.PutUint16(s[4:6], uint16(8+len(payload)))
	copy(s[8:], payload)
	return s
}

func tcpSeg(sport, dport uint16, payload []byte) []byte {
	s := make([]byte, 20+len(payload))
	binary.BigEndian.PutUint16(s[0:2], sport)
	binary.BigEndian.PutUint16(s[2:4], dport)
	s[12] = 5 << 4 // data offset: no options
	copy(s[20:], payload)
	return s
}

// dnsResponse is a minimal DNS message with the QR bit set.
func dnsResponse() []byte {
	m := make([]byte, 12)
	m[2] = 0x84
	return m
}

// FuzzPeekMatchesParse pins the contract PeekFrame documents: ok=true
// exactly when a full layers.Parse succeeds (i.e. yields TCP or UDP), and
// on success the routed endpoints, ports, protocol, and DNS QR
// classification agree with what the parse reports. Any divergence would
// let a peek-based router send a frame somewhere its parse disagrees with.
func FuzzPeekMatchesParse(f *testing.F) {
	f.Add(ip4Frame(17, udpSeg(53, 40000, dnsResponse())))   // DNS response
	f.Add(ip4Frame(17, udpSeg(40000, 53, make([]byte, 12)))) // DNS query (QR clear)
	f.Add(ip4Frame(17, udpSeg(53, 40000, []byte{1})))        // runt DNS payload
	f.Add(ip4Frame(6, tcpSeg(443, 50000, []byte("hello"))))
	f.Add(ip6Frame(17, udpSeg(53, 40001, dnsResponse())))
	f.Add(ip6Frame(6, tcpSeg(80, 50001, nil)))
	f.Add(ip4Frame(1, []byte{8, 0, 0, 0}))                 // ICMP: parse rejects
	f.Add(ip4Frame(6, tcpSeg(1, 2, nil))[:14+20+19])       // truncated TCP header
	f.Add(ip4Frame(17, udpSeg(1, 2, nil))[:14+20+7])       // truncated UDP header
	f.Add([]byte{0, 1, 2, 3})                              // runt frame
	f.Add(append([]byte(nil), make([]byte, 60)...))        // zero EtherType
	bad := ip4Frame(17, udpSeg(1, 2, nil))
	bad[14] = 0x43 // IHL < 20
	f.Add(bad)
	short := ip4Frame(17, udpSeg(1, 2, make([]byte, 4)))
	binary.BigEndian.PutUint16(short[14+20+4:14+20+6], 99) // UDP length > datagram
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := PeekFrame(data)
		var ps layers.Parser
		dec, err := ps.Parse(data)
		if ok != (err == nil) {
			t.Fatalf("peek ok=%v but parse err=%v", ok, err)
		}
		if !ok {
			return
		}
		if p.Src != dec.SrcIP || p.Dst != dec.DstIP {
			t.Errorf("endpoints diverge: peek %v→%v, parse %v→%v", p.Src, p.Dst, dec.SrcIP, dec.DstIP)
		}
		if p.SrcPort != dec.SrcPort || p.DstPort != dec.DstPort {
			t.Errorf("ports diverge: peek %d→%d, parse %d→%d", p.SrcPort, p.DstPort, dec.SrcPort, dec.DstPort)
		}
		if p.UDP != dec.HasUDP {
			t.Errorf("protocol diverges: peek UDP=%v, parse HasUDP=%v HasTCP=%v", p.UDP, dec.HasUDP, dec.HasTCP)
		}
		if p.UDP {
			want := len(dec.Payload) >= 3 && dec.Payload[2]&0x80 != 0
			if p.DNSResponse != want {
				t.Errorf("QR bit diverges: peek %v, parse-side %v (payload %d bytes)", p.DNSResponse, want, len(dec.Payload))
			}
		}
	})
}
