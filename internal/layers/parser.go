package layers

import (
	"fmt"
	"net/netip"
)

// Decoded summarizes one parsed frame. All slice fields alias the frame
// buffer passed to Parser.Parse; copy before retaining.
type Decoded struct {
	// Which layers were recognized.
	HasIP, HasTCP, HasUDP bool
	SrcIP, DstIP          netip.Addr
	Proto                 IPProtocol
	SrcPort, DstPort      uint16
	TCPFlags              TCPFlags
	Seq, Ack              uint32
	// Payload is the transport payload (TCP stream bytes or UDP datagram).
	Payload []byte
}

// Parser decodes Ethernet frames into preallocated layer structs, the
// DecodingLayerParser pattern from gopacket: zero allocation per packet.
// A Parser is not safe for concurrent use.
type Parser struct {
	eth  Ethernet
	ip4  IPv4
	ip6  IPv6
	tcp  TCP
	udp  UDP
	Info Decoded

	// Stats counts decode outcomes; the sniffer reports them.
	Stats ParserStats
}

// ParserStats counts parse outcomes.
type ParserStats struct {
	Frames      uint64 // total frames offered
	Malformed   uint64 // frames rejected by a decoder
	NonIP       uint64 // frames with an unhandled EtherType
	OtherProto  uint64 // IP packets that are neither TCP nor UDP
	Fragments   uint64 // non-first IPv4 fragments (no transport header)
	TCPSegments uint64
	UDPDatagram uint64
}

// Add accumulates o into s (per-shard merge).
func (s *ParserStats) Add(o ParserStats) {
	s.Frames += o.Frames
	s.Malformed += o.Malformed
	s.NonIP += o.NonIP
	s.OtherProto += o.OtherProto
	s.Fragments += o.Fragments
	s.TCPSegments += o.TCPSegments
	s.UDPDatagram += o.UDPDatagram
}

// Parse decodes one Ethernet frame. On success Info is valid until the next
// call. Unsupported-but-well-formed frames (ARP, ICMP) and non-first IPv4
// fragments, whose payload starts mid-datagram rather than at a transport
// header, return ErrUnhandled.
func (p *Parser) Parse(frame []byte) (*Decoded, error) {
	p.Stats.Frames++
	p.Info = Decoded{}
	if err := p.eth.DecodeFromBytes(frame); err != nil {
		p.Stats.Malformed++
		return nil, err
	}
	var (
		payload []byte
		proto   IPProtocol
	)
	switch p.eth.EtherType {
	case EtherTypeIPv4:
		if err := p.ip4.DecodeFromBytes(p.eth.Payload); err != nil {
			p.Stats.Malformed++
			return nil, err
		}
		if p.ip4.FragOff != 0 {
			p.Stats.Fragments++
			return nil, errUnhandledFragment
		}
		p.Info.HasIP = true
		p.Info.SrcIP, p.Info.DstIP = p.ip4.Src, p.ip4.Dst
		proto = p.ip4.Protocol
		payload = p.ip4.Payload
	case EtherTypeIPv6:
		if err := p.ip6.DecodeFromBytes(p.eth.Payload); err != nil {
			p.Stats.Malformed++
			return nil, err
		}
		p.Info.HasIP = true
		p.Info.SrcIP, p.Info.DstIP = p.ip6.Src, p.ip6.Dst
		proto = p.ip6.NextHeader
		payload = p.ip6.Payload
	default:
		p.Stats.NonIP++
		return nil, errUnhandledEtherType
	}
	p.Info.Proto = proto
	switch proto {
	case IPProtocolTCP:
		if err := p.tcp.DecodeFromBytes(payload); err != nil {
			p.Stats.Malformed++
			return nil, err
		}
		p.Stats.TCPSegments++
		p.Info.HasTCP = true
		p.Info.SrcPort, p.Info.DstPort = p.tcp.SrcPort, p.tcp.DstPort
		p.Info.TCPFlags = p.tcp.Flags
		p.Info.Seq, p.Info.Ack = p.tcp.Seq, p.tcp.Ack
		p.Info.Payload = p.tcp.Payload
	case IPProtocolUDP:
		if err := p.udp.DecodeFromBytes(payload); err != nil {
			p.Stats.Malformed++
			return nil, err
		}
		p.Stats.UDPDatagram++
		p.Info.HasUDP = true
		p.Info.SrcPort, p.Info.DstPort = p.udp.SrcPort, p.udp.DstPort
		p.Info.Payload = p.udp.Payload
	default:
		p.Stats.OtherProto++
		return nil, errUnhandledProto
	}
	return &p.Info, nil
}

// ErrUnhandled marks frames that parsed correctly but carry a protocol the
// pipeline does not track (ARP, ICMP, ...). Callers should skip, not count
// as malformed.
var ErrUnhandled = fmt.Errorf("layers: unhandled protocol")

// Static wrappers returned on the per-packet path: a capture full of ARP,
// ICMP or fragments must not allocate an error per frame.
var (
	errUnhandledEtherType = fmt.Errorf("%w: ethertype", ErrUnhandled)
	errUnhandledProto     = fmt.Errorf("%w: ip protocol", ErrUnhandled)
	errUnhandledFragment  = fmt.Errorf("%w: non-first ipv4 fragment", ErrUnhandled)
)

// Builder composes full frames for the synthesizer. The zero value uses
// fixed locally administered MAC addresses; only the IP/transport fields
// matter to the pipeline. TCPFrame and UDPFrame both build into buffers
// the Builder owns and reuses: a frame returned by either is overwritten
// by the next call to either, so copy it before retaining it. Once those
// buffers have grown to the largest frame built, building allocates
// nothing.
type Builder struct {
	seg, buf []byte
}

var (
	builderSrcMAC = MACAddr{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	builderDstMAC = MACAddr{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
)

// TCPFrame builds Ethernet+IP+TCP with the given payload. The returned slice
// is reused on the next call; copy before retaining.
func (b *Builder) TCPFrame(src, dst netip.Addr, sport, dport uint16, flags TCPFlags, seq, ack uint32, payload []byte) ([]byte, error) {
	t := TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags, Window: 65535}
	seg, err := t.AppendTo(b.seg[:0], payload, src, dst)
	if err != nil {
		return nil, err
	}
	b.seg = seg
	return b.ipFrame(src, dst, IPProtocolTCP)
}

// UDPFrame builds Ethernet+IP+UDP with the given payload. The returned slice
// is reused on the next call; copy before retaining.
func (b *Builder) UDPFrame(src, dst netip.Addr, sport, dport uint16, payload []byte) ([]byte, error) {
	u := UDP{SrcPort: sport, DstPort: dport}
	seg, err := u.AppendTo(b.seg[:0], payload, src, dst)
	if err != nil {
		return nil, err
	}
	b.seg = seg
	return b.ipFrame(src, dst, IPProtocolUDP)
}

// ipFrame writes the Ethernet and IP headers into b.buf, followed by the
// transport segment in b.seg.
func (b *Builder) ipFrame(src, dst netip.Addr, proto IPProtocol) ([]byte, error) {
	et := EtherTypeIPv4
	if !src.Is4() {
		et = EtherTypeIPv6
	}
	eth := Ethernet{Dst: builderDstMAC, Src: builderSrcMAC, EtherType: et}
	frame := eth.AppendTo(b.buf[:0], nil)
	var err error
	if src.Is4() && dst.Is4() {
		ip := IPv4{TTL: 64, Protocol: proto, Src: src, Dst: dst}
		frame, err = ip.AppendTo(frame, b.seg)
	} else {
		ip := IPv6{NextHeader: proto, HopLimit: 64, Src: src, Dst: dst}
		frame, err = ip.AppendTo(frame, b.seg)
	}
	if err != nil {
		return nil, err
	}
	b.buf = frame
	return frame, nil
}
