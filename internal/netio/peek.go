package netio

// Raw frame peek for header-only routing: the routing summary of a frame
// (endpoints, ports, DNS QR bit) without paying a full layers.Parse. Any
// router built on it must classify exactly as the parse that follows it
// would. No engine path calls it today; the repo benchmark times it as the
// floor cost of such a router. PeekFrame mirrors, check for check,
// the validation rules of layers.Ethernet/IPv4/IPv6/TCP/UDP.DecodeFromBytes
// (pinned by FuzzPeekMatchesParse in the tests): ok=true exactly when a
// full parse would succeed AND yield a TCP or UDP packet. It reads ~40
// header bytes and never touches the payload beyond the DNS QR bit.

import (
	"encoding/binary"
	"net/netip"
)

// Peek is the routing summary of one frame.
type Peek struct {
	// Src and Dst are the IP endpoints.
	Src, Dst netip.Addr
	// SrcPort and DstPort are the transport ports.
	SrcPort, DstPort uint16
	// UDP is true for UDP, false for TCP.
	UDP bool
	// DNSResponse reports a set QR bit in a UDP payload of at least 3 bytes
	// — the same peek the dispatcher uses to attribute DNS responses to
	// their destination client. Meaningless unless UDP.
	DNSResponse bool
}

// PeekFrame classifies one Ethernet frame for header-only routing.
// ok=false means a full layers.Parse would reject the frame or yield a
// non-TCP/UDP packet; such frames carry no flow key.
func PeekFrame(frame []byte) (p Peek, ok bool) {
	if len(frame) < 14 { // Ethernet header
		return p, false
	}
	et := binary.BigEndian.Uint16(frame[12:14])
	data := frame[14:]
	var (
		proto   byte
		payload []byte
	)
	switch et {
	case 0x0800: // EtherTypeIPv4
		if len(data) < 20 || data[0]>>4 != 4 {
			return p, false
		}
		ihl := int(data[0]&0x0f) * 4
		if ihl < 20 || ihl > len(data) {
			return p, false
		}
		total := int(binary.BigEndian.Uint16(data[2:4]))
		if total < ihl || total > len(data) {
			return p, false
		}
		if binary.BigEndian.Uint16(data[6:8])&0x1fff != 0 { // non-first fragment
			return p, false
		}
		proto = data[9]
		p.Src = netip.AddrFrom4([4]byte(data[12:16]))
		p.Dst = netip.AddrFrom4([4]byte(data[16:20]))
		payload = data[ihl:total]
	case 0x86DD: // EtherTypeIPv6
		if len(data) < 40 || data[0]>>4 != 6 {
			return p, false
		}
		plen := int(binary.BigEndian.Uint16(data[4:6]))
		if 40+plen > len(data) {
			return p, false
		}
		proto = data[6]
		p.Src = netip.AddrFrom16([16]byte(data[8:24]))
		p.Dst = netip.AddrFrom16([16]byte(data[24:40]))
		payload = data[40 : 40+plen]
	default:
		return p, false
	}
	switch proto {
	case 6: // TCP
		if len(payload) < 20 {
			return p, false
		}
		off := int(payload[12]>>4) * 4
		if off < 20 || off > len(payload) {
			return p, false
		}
		p.SrcPort = binary.BigEndian.Uint16(payload[0:2])
		p.DstPort = binary.BigEndian.Uint16(payload[2:4])
	case 17: // UDP
		if len(payload) < 8 {
			return p, false
		}
		length := int(binary.BigEndian.Uint16(payload[4:6]))
		if length < 8 || length > len(payload) {
			return p, false
		}
		p.SrcPort = binary.BigEndian.Uint16(payload[0:2])
		p.DstPort = binary.BigEndian.Uint16(payload[2:4])
		p.UDP = true
		p.DNSResponse = length-8 >= 3 && payload[10]&0x80 != 0
	default:
		return p, false
	}
	return p, true
}
