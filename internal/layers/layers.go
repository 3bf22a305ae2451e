// Package layers implements decoding and serialization for the protocol
// stack DN-Hunter observes on the wire: Ethernet II, IPv4, IPv6, TCP and
// UDP. The design follows the gopacket DecodingLayerParser idiom: each layer
// is a plain struct with a DecodeFromBytes method that fills preallocated
// fields without allocating, so the sniffer hot path is allocation-free.
//
// Serialization (AppendTo methods) is provided because the trace synthesizer
// produces real wire bytes that the sniffer then decodes, exercising both
// directions of every codec.
package layers

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes used by this codebase.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeIPv6 EtherType = 0x86DD
	EtherTypeARP  EtherType = 0x0806
)

// IPProtocol identifies the transport protocol of an IP packet.
type IPProtocol uint8

// IP protocol numbers used by this codebase.
const (
	IPProtocolTCP    IPProtocol = 6
	IPProtocolUDP    IPProtocol = 17
	IPProtocolICMP   IPProtocol = 1
	IPProtocolICMPv6 IPProtocol = 58
)

// String returns the conventional protocol name.
func (p IPProtocol) String() string {
	switch p {
	case IPProtocolTCP:
		return "tcp"
	case IPProtocolUDP:
		return "udp"
	case IPProtocolICMP:
		return "icmp"
	case IPProtocolICMPv6:
		return "icmpv6"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Errors returned by the decoders. Malformed input never panics.
var (
	ErrTruncated = errors.New("layers: truncated packet")
	ErrBadHeader = errors.New("layers: malformed header")
)

// Pre-wrapped per-site errors: decoders run on the sniffer hot path where a
// malformed frame must not cost an allocation, so each failure site returns
// a static error instead of building one with fmt.Errorf. Callers match with
// errors.Is against the sentinels above.
var (
	errEthTruncated  = fmt.Errorf("ethernet: %w", ErrTruncated)
	errIPv4Truncated = fmt.Errorf("ipv4: %w", ErrTruncated)
	errIPv4Version   = fmt.Errorf("ipv4: %w: bad version", ErrBadHeader)
	errIPv4IHL       = fmt.Errorf("ipv4: %w: bad IHL", ErrBadHeader)
	errIPv4Length    = fmt.Errorf("ipv4: %w: total length beyond frame", ErrTruncated)
	errIPv4Addr      = fmt.Errorf("ipv4: %w: non-IPv4 address", ErrBadHeader)
	errIPv4Payload   = fmt.Errorf("ipv4: %w: payload too large", ErrBadHeader)
	errIPv6Truncated = fmt.Errorf("ipv6: %w", ErrTruncated)
	errIPv6Version   = fmt.Errorf("ipv6: %w: bad version", ErrBadHeader)
	errIPv6Length    = fmt.Errorf("ipv6: %w: payload length beyond frame", ErrTruncated)
	errIPv6Addr      = fmt.Errorf("ipv6: %w: non-IPv6 address", ErrBadHeader)
	errIPv6Payload   = fmt.Errorf("ipv6: %w: payload too large", ErrBadHeader)
	errTCPTruncated  = fmt.Errorf("tcp: %w", ErrTruncated)
	errTCPOffset     = fmt.Errorf("tcp: %w: bad data offset", ErrBadHeader)
	errUDPTruncated  = fmt.Errorf("udp: %w", ErrTruncated)
	errUDPLength     = fmt.Errorf("udp: %w: length beyond datagram", ErrTruncated)
	errUDPPayload    = fmt.Errorf("udp: %w: payload too large", ErrBadHeader)
)

// MACAddr is a 6-byte Ethernet hardware address.
type MACAddr [6]byte

// String formats the address in colon-hex form.
func (m MACAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	Dst, Src  MACAddr
	EtherType EtherType
	// Payload references the decoded frame's payload bytes; it aliases the
	// input slice passed to DecodeFromBytes.
	Payload []byte
}

// EthernetHeaderLen is the length of an Ethernet II header in bytes.
const EthernetHeaderLen = 14

// DecodeFromBytes parses an Ethernet II header. The Payload field aliases
// data; callers that retain it across packets must copy.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return errEthTruncated
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = EtherType(binary.BigEndian.Uint16(data[12:14]))
	e.Payload = data[EthernetHeaderLen:]
	return nil
}

// AppendTo serializes the header followed by payload onto b.
func (e *Ethernet) AppendTo(b []byte, payload []byte) []byte {
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	b = binary.BigEndian.AppendUint16(b, uint16(e.EtherType))
	return append(b, payload...)
}

// IPv4 is an IPv4 header. Options are accepted on decode (skipped via IHL)
// but never emitted on serialize.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment word
	FragOff  uint16
	TTL      uint8
	Protocol IPProtocol
	Src, Dst netip.Addr
	// Payload aliases the input slice and is truncated to TotalLength.
	Payload []byte
	// HeaderChecksumOK reports whether the received header checksum verified.
	HeaderChecksumOK bool
}

// IPv4HeaderLen is the length of an option-less IPv4 header.
const IPv4HeaderLen = 20

// DecodeFromBytes parses an IPv4 header, validating version, IHL, total
// length and the header checksum.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderLen {
		return errIPv4Truncated
	}
	if v := data[0] >> 4; v != 4 {
		return errIPv4Version
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || ihl > len(data) {
		return errIPv4IHL
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl || total > len(data) {
		return errIPv4Length
	}
	ip.TOS = data[1]
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	frag := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(frag >> 13)
	ip.FragOff = frag & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.HeaderChecksumOK = checksum(data[:ihl]) == 0
	var src, dst [4]byte
	copy(src[:], data[12:16])
	copy(dst[:], data[16:20])
	ip.Src = netip.AddrFrom4(src)
	ip.Dst = netip.AddrFrom4(dst)
	ip.Payload = data[ihl:total]
	return nil
}

// AppendTo serializes the header (with a correct checksum) followed by
// payload onto b. Src and Dst must be IPv4 addresses.
func (ip *IPv4) AppendTo(b []byte, payload []byte) ([]byte, error) {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return b, errIPv4Addr
	}
	total := IPv4HeaderLen + len(payload)
	if total > 0xffff {
		return b, errIPv4Payload
	}
	start := len(b)
	b = append(b, 0x45, ip.TOS)
	b = binary.BigEndian.AppendUint16(b, uint16(total))
	b = binary.BigEndian.AppendUint16(b, ip.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	b = append(b, ttl, uint8(ip.Protocol), 0, 0) // checksum patched below
	src := ip.Src.As4()
	dst := ip.Dst.As4()
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	cs := checksum(b[start : start+IPv4HeaderLen])
	binary.BigEndian.PutUint16(b[start+10:start+12], cs)
	return append(b, payload...), nil
}

// IPv6 is a fixed IPv6 header. Extension headers are not decoded; packets
// carrying them surface NextHeader values the parser treats as unsupported.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	NextHeader   IPProtocol
	HopLimit     uint8
	Src, Dst     netip.Addr
	Payload      []byte
}

// IPv6HeaderLen is the length of the fixed IPv6 header.
const IPv6HeaderLen = 40

// DecodeFromBytes parses the fixed IPv6 header.
func (ip *IPv6) DecodeFromBytes(data []byte) error {
	if len(data) < IPv6HeaderLen {
		return errIPv6Truncated
	}
	if v := data[0] >> 4; v != 6 {
		return errIPv6Version
	}
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.FlowLabel = binary.BigEndian.Uint32(data[0:4]) & 0x000fffff
	plen := int(binary.BigEndian.Uint16(data[4:6]))
	ip.NextHeader = IPProtocol(data[6])
	ip.HopLimit = data[7]
	var src, dst [16]byte
	copy(src[:], data[8:24])
	copy(dst[:], data[24:40])
	ip.Src = netip.AddrFrom16(src)
	ip.Dst = netip.AddrFrom16(dst)
	if IPv6HeaderLen+plen > len(data) {
		return errIPv6Length
	}
	ip.Payload = data[IPv6HeaderLen : IPv6HeaderLen+plen]
	return nil
}

// AppendTo serializes the fixed header followed by payload onto b.
// Src and Dst must be IPv6 addresses.
func (ip *IPv6) AppendTo(b []byte, payload []byte) ([]byte, error) {
	if !ip.Src.Is6() || ip.Src.Is4In6() || !ip.Dst.Is6() || ip.Dst.Is4In6() {
		return b, errIPv6Addr
	}
	if len(payload) > 0xffff {
		return b, errIPv6Payload
	}
	w0 := uint32(6)<<28 | uint32(ip.TrafficClass)<<20 | ip.FlowLabel&0x000fffff
	b = binary.BigEndian.AppendUint32(b, w0)
	b = binary.BigEndian.AppendUint16(b, uint16(len(payload)))
	hop := ip.HopLimit
	if hop == 0 {
		hop = 64
	}
	b = append(b, uint8(ip.NextHeader), hop)
	src := ip.Src.As16()
	dst := ip.Dst.As16()
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	return append(b, payload...), nil
}

// checksum computes the RFC 1071 internet checksum over data.
func checksum(data []byte) uint16 {
	var sum uint32
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum computes the partial sum of the TCP/UDP pseudo-header.
func pseudoHeaderSum(src, dst netip.Addr, proto IPProtocol, length int) uint32 {
	var sum uint32
	add := func(b []byte) {
		for len(b) >= 2 {
			sum += uint32(binary.BigEndian.Uint16(b[:2]))
			b = b[2:]
		}
	}
	if src.Is4() && dst.Is4() {
		s, d := src.As4(), dst.As4()
		add(s[:])
		add(d[:])
	} else {
		s, d := src.As16(), dst.As16()
		add(s[:])
		add(d[:])
	}
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// transportChecksum finishes a checksum over segment with the pseudo-header
// for src/dst/proto included. The segment is summed eight bytes a step as
// 32-bit words: a one's-complement sum folds to the same 16 bits whatever
// width its words have (RFC 1071, section 2), and a 64-bit accumulator
// cannot overflow on a 64 KiB segment.
func transportChecksum(segment []byte, src, dst netip.Addr, proto IPProtocol) uint16 {
	sum := uint64(pseudoHeaderSum(src, dst, proto, len(segment)))
	for len(segment) >= 8 {
		sum += uint64(binary.BigEndian.Uint32(segment[:4])) + uint64(binary.BigEndian.Uint32(segment[4:8]))
		segment = segment[8:]
	}
	for len(segment) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(segment[:2]))
		segment = segment[2:]
	}
	if len(segment) == 1 {
		sum += uint64(segment[0]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
