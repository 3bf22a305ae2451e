package layers

import (
	"encoding/binary"
	"net/netip"
)

// TCPFlags is the 8-bit TCP flag field.
type TCPFlags uint8

// Individual TCP flags.
const (
	TCPFin TCPFlags = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
	TCPEce
	TCPCwr
)

// Has reports whether all flags in f are set.
func (fl TCPFlags) Has(f TCPFlags) bool { return fl&f == f }

// String renders the set flags in tcpdump-style order.
func (fl TCPFlags) String() string {
	out := make([]byte, 0, 8)
	for _, p := range []struct {
		f TCPFlags
		c byte
	}{{TCPSyn, 'S'}, {TCPFin, 'F'}, {TCPRst, 'R'}, {TCPPsh, 'P'}, {TCPAck, 'A'}, {TCPUrg, 'U'}, {TCPEce, 'E'}, {TCPCwr, 'C'}} {
		if fl.Has(p.f) {
			out = append(out, p.c)
		}
	}
	if len(out) == 0 {
		return "."
	}
	return string(out)
}

// TCP is a TCP segment header. Options are skipped via the data offset.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint16
	Urgent           uint16
	// Payload aliases the decoded segment's payload bytes.
	Payload []byte
}

// TCPHeaderLen is the length of an option-less TCP header.
const TCPHeaderLen = 20

// DecodeFromBytes parses a TCP header.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < TCPHeaderLen {
		return errTCPTruncated
	}
	off := int(data[12]>>4) * 4
	if off < TCPHeaderLen || off > len(data) {
		return errTCPOffset
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.Flags = TCPFlags(data[13])
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Payload = data[off:]
	return nil
}

// AppendTo serializes the segment (header + payload) onto b with a correct
// checksum computed against the src/dst pseudo-header.
func (t *TCP) AppendTo(b []byte, payload []byte, src, dst netip.Addr) ([]byte, error) {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b, 5<<4, uint8(t.Flags))
	b = binary.BigEndian.AppendUint16(b, t.Window)
	b = append(b, 0, 0) // checksum patched below
	b = binary.BigEndian.AppendUint16(b, t.Urgent)
	b = append(b, payload...)
	cs := transportChecksum(b[start:], src, dst, IPProtocolTCP)
	binary.BigEndian.PutUint16(b[start+16:start+18], cs)
	return b, nil
}

// UDP is a UDP datagram header.
type UDP struct {
	SrcPort, DstPort uint16
	// Payload aliases the decoded datagram's payload bytes, truncated to the
	// length field.
	Payload []byte
}

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// DecodeFromBytes parses a UDP header.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return errUDPTruncated
	}
	length := int(binary.BigEndian.Uint16(data[4:6]))
	if length < UDPHeaderLen || length > len(data) {
		return errUDPLength
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Payload = data[UDPHeaderLen:length]
	return nil
}

// AppendTo serializes the datagram onto b with a correct checksum.
func (u *UDP) AppendTo(b []byte, payload []byte, src, dst netip.Addr) ([]byte, error) {
	length := UDPHeaderLen + len(payload)
	if length > 0xffff {
		return b, errUDPPayload
	}
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(length))
	b = append(b, 0, 0)
	b = append(b, payload...)
	cs := transportChecksum(b[start:], src, dst, IPProtocolUDP)
	if cs == 0 {
		cs = 0xffff // RFC 768: transmitted-zero means "no checksum"
	}
	binary.BigEndian.PutUint16(b[start+6:start+8], cs)
	return b, nil
}
