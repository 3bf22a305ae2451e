package synth

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"repro/internal/dnswire"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/stats"
	"repro/internal/tlswire"
)

// wire.go turns simulated behaviour into actual packets: DNS responses over
// UDP/53 and TCP flows with realistic handshakes and payload prefixes, so
// the full DN-Hunter pipeline (parser, flow table, TLS inspector) is
// exercised on real bytes.

// cacheEntry is a client-side cached resolution.
type cacheEntry struct {
	expiry  time.Duration
	servers []netip.Addr
	// provider serves the cached addresses (drives TLS cert policy on
	// cache-hit fetches).
	provider *Provider
	// external marks entries resolved outside the capture (pre-trace or
	// out-of-coverage): flows using them have no visible DNS.
	external bool
}

// resolve returns the servers for fqdn, emitting a DNS response packet on a
// client-cache miss. It returns the addresses the client knows.
func (g *generator) resolve(c *client, at time.Duration, fqdn string, group *HostGroup, provider *Provider) []netip.Addr {
	if e, ok := c.cache[fqdn]; ok && e.expiry > at && len(e.servers) > 0 {
		return e.servers
	}
	addrs := g.selectServers(c, at, fqdn, group, provider)
	if len(addrs) == 0 {
		return nil
	}
	g.emitDNSResponse(c, at, fqdn, addrs)
	ttl := g.ttlFor(provider)
	lifetime := ttl
	if lifetime > time.Hour {
		lifetime = time.Hour
	}
	lifetime = time.Duration(float64(lifetime) * (0.5 + 0.5*c.rng.Float64()))
	c.cache[fqdn] = cacheEntry{expiry: at + lifetime, servers: addrs, provider: provider}
	// Record the reverse zone for every address the LDNS handed out.
	// Provider policy sets the baseline, but tenants override reverse
	// zones for their own blocks, and plenty of addresses simply lack PTR
	// records — Table 3 finds 9% exact / 36% same-SLD / 26% different /
	// 29% unanswered. The overlay reproduces that mixture.
	for _, a := range addrs {
		if _, seen := g.trace.PTRZone[a]; !seen {
			name, ok := g.u.PTRName(provider.Name, a, fqdn)
			switch r := g.rng.Float64(); {
			case r < 0.26:
				name = "" // no PTR published
			case r < 0.34:
				name = fqdn // tenant-configured exact PTR
			case r < 0.60:
				// Same organization, different host name.
				a4 := a.As4()
				name = fmt.Sprintf("host%d-%d.%s", a4[2], a4[3], stats.SLD(fqdn))
			default:
				if !ok {
					name = ""
				}
			}
			g.trace.PTRZone[a] = name
		}
	}
	return addrs
}

// ttlFor returns a TTL for records served by the provider: CDNs use short
// TTLs to keep steering traffic, static hosting uses long ones (§2.2).
func (g *generator) ttlFor(p *Provider) time.Duration {
	if p.Diurnal {
		return time.Duration(20+g.rng.Intn(100)) * time.Second
	}
	return time.Duration(300+g.rng.Intn(3300)) * time.Second
}

// selectServers picks the answer list for a resolution: a subset of the
// provider's currently active pool.
func (g *generator) selectServers(c *client, at time.Duration, fqdn string, group *HostGroup, provider *Provider) []netip.Addr {
	pool := g.u.ServerAddrs(provider.Name)
	if len(pool) == 0 {
		return nil
	}
	// Each host group uses its own slice of the provider pool, offset by a
	// stable hash so e.g. linkedin's two Akamai servers differ from
	// fbcdn's hundreds.
	n := group.Servers
	if n <= 0 || n > len(pool) {
		n = len(pool)
	}
	offset := int(group.poolHash(provider.Name)) % len(pool)
	active := n
	if provider.Diurnal {
		mult := g.diurnal.Value(g.hourOf(at))
		if stats.SLD(fqdn) == "youtube.com" {
			// The paper observes a sudden jump in YouTube's server pool
			// between 17:00 and 20:30 (Fig. 4) — a peak-load policy change.
			h := g.hourOf(at)
			if h >= 17 && h < 20.5 {
				mult = 1.0
			} else {
				mult *= 0.3
			}
		}
		active = int(float64(n) * mult)
		if active < 1 {
			active = 1
		}
	}
	// Most FQDNs are pinned to a single server for their whole life — a
	// blog, a small site, one tenant VM — which is where Fig. 3's
	// singleton mass (82% of FQDNs on one IP) comes from. The rest are
	// CDN-rotated names with multi-address answers.
	multiThresh := uint32(25)
	if provider.Diurnal {
		multiThresh = 45
	}
	nameHash := fnv32(fqdn)
	if fnvAdd(nameHash, "*")%100 >= multiThresh {
		// Pinned names: one server for the whole capture. Per-bin distinct
		// server counts for an SLD then track how many of its names are
		// touched per bin, which follows the diurnal load — and the
		// rotated names below add the active-pool dynamics on top.
		return []netip.Addr{pool[(offset+int(nameHash)%n)%len(pool)]}
	}
	// Answer list length for rotated names: mostly 1, sometimes several
	// (§6: ~40% of responses carry more than one address; Google up to 16).
	maxAddrs := provider.MaxAddrsPerResponse
	if maxAddrs <= 0 {
		maxAddrs = 1
	}
	if maxAddrs > active {
		maxAddrs = active
	}
	nAddrs := 1
	switch r := c.rng.Float64(); {
	case r < 0.60 || maxAddrs == 1:
		nAddrs = 1
	case r < 0.85:
		nAddrs = 2 + c.rng.Intn(maxInt(1, minInt(9, maxAddrs-1)))
	default:
		nAddrs = 1 + c.rng.Intn(maxAddrs)
	}
	if nAddrs > active {
		nAddrs = active
	}
	// Server choice is sticky per FQDN (real resolvers return stable
	// subsets per name within a region), with jitter so pools rotate over
	// time. Diurnal CDNs rotate aggressively (short TTLs, load balancing);
	// static hosting barely moves. Fig. 3's singleton mass rides on the
	// stickiness, Fig. 4's per-bin server counts on the rotation.
	jitter := 0.15
	if provider.Diurnal {
		jitter = 0.6
	}
	start := int(nameHash) % active
	if c.rng.Bool(jitter) {
		start = c.rng.Intn(active)
	}
	out := make([]netip.Addr, 0, nAddrs)
	for i := 0; i < nAddrs; i++ {
		out = append(out, pool[(offset+start+i)%len(pool)])
	}
	return out
}

// poolHash is the FNV-1a hash of the group's stable ID, provider + "/" +
// its first name pattern, or provider + "/p" + its port for a port group:
// the offset of its slice of the provider pool. The hash runs over the
// ID's pieces in turn, so the ID is never built.
func (hg *HostGroup) poolHash(provider string) uint32 {
	h := fnvAdd(fnv32(provider), "/")
	if len(hg.Names) > 0 {
		return fnvAdd(h, hg.Names[0].Pattern)
	}
	var port [6]byte
	return fnvAddBytes(h, strconv.AppendUint(append(port[:0], 'p'), uint64(hg.Port), 10))
}

// fnv32 is the 32-bit FNV-1a hash of s.
func fnv32(s string) uint32 { return fnvAdd(2166136261, s) }

// fnvAdd continues the FNV-1a hash h over s: fnvAdd(fnv32(a), b) is
// fnv32(a + b).
func fnvAdd(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// fnvAddBytes is fnvAdd over a byte slice.
func fnvAddBytes(h uint32, b []byte) uint32 {
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// emitDNSResponse writes the LDNS → client UDP packet.
func (g *generator) emitDNSResponse(c *client, at time.Duration, fqdn string, addrs []netip.Addr) {
	g.dnsID++
	g.dnsRecs = g.dnsRecs[:0]
	for _, a := range addrs {
		g.dnsRecs = append(g.dnsRecs, dnswire.Record{Name: fqdn, Type: dnswire.TypeA, TTL: 60, Addr: a})
	}
	msg := dnswire.NewResponse(g.dnsID, fqdn, dnswire.TypeA, g.dnsRecs)
	raw, err := msg.Pack(g.dnsBuf[:0])
	if err != nil {
		return // name too long for the wire; skip silently
	}
	g.dnsBuf = raw
	frame, err := g.builder.UDPFrame(g.ldns, c.addr, 53, 30000+g.dnsID%20000, raw)
	if err != nil {
		return
	}
	g.addPacket(at, frame)
	g.trace.DNSResponses++
}

func (g *generator) addPacket(at time.Duration, frame []byte) {
	if at > g.sc.Duration {
		return
	}
	g.frames.add(at, frame)
}

// resolveOnly performs a prefetch resolution never followed by a flow.
func (g *generator) resolveOnly(c *client, at time.Duration, fqdn string, group *HostGroup, provider *Provider) {
	g.resolve(c, at, fqdn, group, provider)
}

// resolveAndFetch resolves fqdn and opens one flow to a returned server
// after the access-technology delay.
func (g *generator) resolveAndFetch(c *client, at time.Duration, fqdn string, org *Org, group *HostGroup, provider *Provider, emitDNS bool) {
	addrs := g.resolve(c, at, fqdn, group, provider)
	if len(addrs) == 0 {
		return
	}
	server := addrs[c.rng.Intn(len(addrs))]
	delay := g.flowDelay(c)
	flowAt := at + delay
	if flowAt >= g.sc.Duration {
		return
	}
	port := group.Port
	tls := false
	if port == 0 {
		if c.rng.Bool(group.TLSFrac) {
			port, tls = 443, true
		} else {
			port = 80
		}
	}
	kind := kindService
	if port == 80 {
		kind = kindHTTP
	} else if tls || port == 443 {
		kind = kindTLS
	}
	g.emitFlowKind(c, flowAt, server, port, fqdn, provider, kind)
}

// flowDelay samples the DNS-response → first-packet delay (Fig. 12):
// a lognormal body plus a heavy prefetch tail.
func (g *generator) flowDelay(c *client) time.Duration {
	if c.rng.Bool(g.sc.LatePrefetchProb) {
		// Resolved by the prefetcher; fetched much later (10 s – 300 s).
		return time.Duration((10 + c.rng.Float64()*290) * float64(time.Second))
	}
	sec := c.rng.LogNormal(g.sc.DelayMu, g.sc.DelaySigma)
	if sec > 9 {
		sec = 9
	}
	return time.Duration(sec * float64(time.Second))
}

type flowKind uint8

const (
	kindHTTP flowKind = iota
	kindTLS
	kindService
	kindBT
)

// emitFlow opens one HTTP-or-TLS flow, choosing the port from the TLS coin
// when the caller passes port 0.
func (g *generator) emitFlow(c *client, at time.Duration, server netip.Addr, port uint16, fqdn string, provider *Provider, tlsFrac float64, _ string) {
	if at >= g.sc.Duration {
		return
	}
	kind := kindHTTP
	if c.rng.Bool(tlsFrac) || port == 443 {
		kind = kindTLS
	}
	if port == 0 {
		if kind == kindTLS {
			port = 443
		} else {
			port = 80
		}
	}
	g.emitFlowKind(c, at, server, port, fqdn, provider, kind)
}

// emitFlowKind writes a full TCP conversation.
func (g *generator) emitFlowKind(c *client, at time.Duration, server netip.Addr, port uint16, fqdn string, provider *Provider, kind flowKind) {
	cport := c.nextPort()
	key := flows.Key{
		ClientIP: c.addr, ServerIP: server,
		ClientPort: cport, ServerPort: port,
		Proto: layers.IPProtocolTCP,
	}
	g.trace.Truth[key] = fqdn
	g.trace.Flows++

	rtt := time.Duration(g.rttMillis()) * time.Millisecond
	t := at
	send := func(c2s bool, flags layers.TCPFlags, seq, ack uint32, payload []byte) {
		var frame []byte
		var err error
		if c2s {
			frame, err = g.builder.TCPFrame(c.addr, server, cport, port, flags, seq, ack, payload)
		} else {
			frame, err = g.builder.TCPFrame(server, c.addr, port, cport, flags, seq, ack, payload)
		}
		if err == nil {
			g.addPacket(t, frame)
		}
	}

	send(true, layers.TCPSyn, 0, 0, nil)
	t += rtt
	send(false, layers.TCPSyn|layers.TCPAck, 0, 1, nil)
	t += rtt / 2
	send(true, layers.TCPAck, 1, 1, nil)

	var c2sPayload, s2cPayload []byte
	switch kind {
	case kindHTTP:
		host := fqdn
		if host == "" {
			host = "direct-" + server.String()
		}
		g.c2s = fmt.Appendf(g.c2s[:0], "GET /r%d HTTP/1.1\r\nHost: %s\r\nUser-Agent: synth/1.0\r\n\r\n", c.rng.Intn(1000), host)
		body := 200 + c.rng.Intn(2400)
		g.s2c = fmt.Appendf(g.s2c[:0], "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", body)
		g.s2c = append(g.s2c, make([]byte, body)...)
		c2sPayload, s2cPayload = g.c2s, g.s2c
	case kindTLS:
		c2sPayload, s2cPayload = g.tlsFlight(c, fqdn, provider)
	case kindService:
		c2sPayload = []byte(fmt.Sprintf("\x01SVC hello %d\r\n", c.rng.Intn(1000)))
		s2cPayload = []byte("\x01SVC ok\r\n")
	case kindBT:
		hs := append([]byte{19}, []byte("BitTorrent protocol")...)
		hs = append(hs, make([]byte, 48)...)
		c2sPayload = hs
		s2cPayload = append([]byte(nil), hs...)
	}

	t += rtt / 2
	send(true, layers.TCPAck|layers.TCPPsh, 1, 1, c2sPayload)
	t += rtt
	send(false, layers.TCPAck|layers.TCPPsh, 1, uint32(1+len(c2sPayload)), s2cPayload)
	t += rtt
	send(true, layers.TCPFin|layers.TCPAck, uint32(1+len(c2sPayload)), uint32(1+len(s2cPayload)), nil)
	t += rtt / 2
	send(false, layers.TCPFin|layers.TCPAck, uint32(1+len(s2cPayload)), uint32(2+len(c2sPayload)), nil)
}

// rttMillis samples a round-trip time from the scenario's access profile.
func (g *generator) rttMillis() int {
	base := 8 + g.rng.Intn(20)
	if g.sc.DelayMu > -1 { // slower access technologies
		base += 40
	}
	return base
}

// tlsFlight builds the ClientHello and the server's first flight according
// to the provider's certificate policy.
func (g *generator) tlsFlight(c *client, fqdn string, provider *Provider) (c2s, s2c []byte) {
	ch := &tlswire.ClientHello{}
	if fqdn != "" && c.rng.Bool(0.75) {
		ch.ServerName = fqdn
	}
	chBody, err := ch.Marshal()
	if err != nil {
		return nil, nil
	}
	c2s, err = tlswire.AppendRecord(nil, tlswire.RecordHandshake, chBody)
	if err != nil {
		return nil, nil
	}
	shBody, err := (&tlswire.ServerHello{}).Marshal()
	if err != nil {
		return c2s, nil
	}
	flight := shBody
	// What certificate the inspection baseline sees (Table 4's mixture:
	// 18% exact, 19% generic wildcard, 40% totally different, 23% none).
	// Session resumption sends no certificate at all; otherwise the
	// outcome blends the provider's policy with tenant-installed certs —
	// CDN frontends mostly present their own names (the paper's
	// a248.e.akamai.net serving Zynga), tenants sometimes install exact
	// or wildcard certificates.
	cn, has := "", false
	if !c.rng.Bool(0.13) && provider != nil && fqdn != "" {
		switch r := c.rng.Float64(); {
		case r < 0.21:
			cn, has = fqdn, true
		case r < 0.44:
			cn, has = "*."+stats.SLD(fqdn), true
		case r < 0.90:
			cn, has = g.u.CertName(provider.Name, fqdn)
			if !has || cn == fqdn || cn == "*."+stats.SLD(fqdn) {
				// Providers with exact/wildcard policies fall in the
				// previous buckets; substitute the frontend's own name.
				cn, has = fmt.Sprintf("a248.e.%s-edge.net", strings.ReplaceAll(provider.Name, " ", "")), true
			}
		default:
			has = false
		}
	}
	if has {
		der, err := tlswire.MarshalCertificate(cn)
		if err == nil {
			certBody, err := (&tlswire.Certificate{Chain: [][]byte{der}}).Marshal()
			if err == nil {
				flight = append(flight, certBody...)
			}
		}
	}
	s2c, err = tlswire.AppendRecord(nil, tlswire.RecordHandshake, flight)
	if err != nil {
		return c2s, nil
	}
	return c2s, s2c
}

// emitBT writes one BitTorrent peer-wire flow (no DNS precedes it).
func (g *generator) emitBT(c *client, at time.Duration, peer netip.Addr) {
	g.emitFlowKind(c, at, peer, uint16(6881+c.rng.Intn(10)), "", nil, kindBT)
}
