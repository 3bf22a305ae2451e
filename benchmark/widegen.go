package main

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"repro/internal/dnswire"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
)

// wideTrace is the batch-wide input: a capture whose working set is far
// beyond the last-level cache. Every client receives one DNS response with
// wideAnswers A records and then opens one five-packet TCP flow to one of
// them; the six packets of all clients are emitted round by round (all DNS
// responses, then all SYNs, ...), each round in its own seed-driven order,
// so every flow is live at once and every table probe lands on a cold line.
type wideTrace struct {
	Packets []netio.Packet
	// Truth maps each flow to the FQDN its client resolved: known by
	// construction, so label accuracy on this trace must be exactly 1.
	Truth map[flows.Key]string
	Flows int
	DNS   int
}

const (
	wideAnswers = 4
	// wideSpacing is the trace time between consecutive packets. 1.2M
	// packets span a minute: far inside the 5-minute idle timeout, so no
	// flow expires before the end-of-capture flush.
	wideSpacing = 50 * time.Microsecond
)

// generateWide builds the trace for clients monitored hosts from seed.
// It uses only layers.Builder and dnswire.NewResponse/Pack: the frames
// are what the pipeline's own codecs say such traffic looks like.
func generateWide(clients int, seed uint64) (*wideTrace, error) {
	rng := rand.New(rand.NewPCG(seed, 0x77696465)) // "wide"
	ldns := netip.AddrFrom4([4]byte{10, 255, 255, 254})
	type host struct {
		addr   netip.Addr
		server netip.Addr
		port   uint16
		fqdn   string
		seq    uint32 // client sequence number after the HTTP request
	}
	hosts := make([]host, clients)
	tr := &wideTrace{
		Packets: make([]netio.Packet, 0, 6*clients),
		Truth:   make(map[flows.Key]string, clients),
	}
	var (
		b     layers.Builder
		at    time.Duration
		dnsID uint16
	)
	add := func(frame []byte, err error) error {
		if err != nil {
			return err
		}
		tr.Packets = append(tr.Packets, netio.Packet{Timestamp: at, Data: append([]byte(nil), frame...)})
		at += wideSpacing
		return nil
	}

	// Round 0: one DNS response per client, clients in shuffled order.
	order := rng.Perm(clients)
	recs := make([]dnswire.Record, wideAnswers)
	for _, i := range order {
		h := &hosts[i]
		n := uint32(i) + 256 // skip 10.0.0.x
		h.addr = netip.AddrFrom4([4]byte{10, byte(n >> 16), byte(n >> 8), byte(n)})
		h.port = uint16(1024 + rng.IntN(60000))
		h.fqdn = fmt.Sprintf("h%05d.site%03d.wide.example", rng.IntN(50000), rng.IntN(500))
		for j := range recs {
			r := rng.Uint32()
			// First octet 16..215 keeps servers outside 10/8.
			srv := netip.AddrFrom4([4]byte{byte(16 + r%200), byte(r >> 8), byte(r >> 16), byte(r >> 24)})
			recs[j] = dnswire.Record{Name: h.fqdn, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: srv}
		}
		h.server = recs[rng.IntN(wideAnswers)].Addr
		dnsID++
		raw, err := dnswire.NewResponse(dnsID, h.fqdn, dnswire.TypeA, recs).Pack(nil)
		if err != nil {
			return nil, fmt.Errorf("widegen: packing response for %s: %w", h.fqdn, err)
		}
		if err := add(b.UDPFrame(ldns, h.addr, 53, 30000+dnsID%20000, raw)); err != nil {
			return nil, fmt.Errorf("widegen: %w", err)
		}
		tr.DNS++
		tr.Truth[flows.Key{ClientIP: h.addr, ServerIP: h.server, ClientPort: h.port, ServerPort: 80, Proto: layers.IPProtocolTCP}] = h.fqdn
	}
	tr.Flows = clients

	// Rounds 1-5: the same packet of every flow, each round reshuffled.
	const (
		syn    = layers.TCPSyn
		synAck = layers.TCPSyn | layers.TCPAck
		pshAck = layers.TCPPsh | layers.TCPAck
		ack    = layers.TCPAck
		finAck = layers.TCPFin | layers.TCPAck
	)
	for round := 1; round <= 5; round++ {
		rng.Shuffle(len(order), func(a, c int) { order[a], order[c] = order[c], order[a] })
		for _, i := range order {
			h := &hosts[i]
			var err error
			switch round {
			case 1:
				err = add(b.TCPFrame(h.addr, h.server, h.port, 80, syn, 1000, 0, nil))
			case 2:
				err = add(b.TCPFrame(h.server, h.addr, 80, h.port, synAck, 5000, 1001, nil))
			case 3:
				req := "GET / HTTP/1.1\r\nHost: " + h.fqdn + "\r\nUser-Agent: wide\r\n\r\n"
				h.seq = 1001 + uint32(len(req))
				err = add(b.TCPFrame(h.addr, h.server, h.port, 80, pshAck, 1001, 5001, []byte(req)))
			case 4:
				err = add(b.TCPFrame(h.server, h.addr, 80, h.port, ack, 5001, h.seq, nil))
			case 5:
				err = add(b.TCPFrame(h.addr, h.server, h.port, 80, finAck, h.seq, 5001, nil))
			}
			if err != nil {
				return nil, fmt.Errorf("widegen: %w", err)
			}
		}
	}
	return tr, nil
}
