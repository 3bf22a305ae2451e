package synth

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/dnswire"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
	"repro/internal/orgdb"
	"repro/internal/stats"
)

// Scenario parameterizes one synthetic capture, standing in for one of the
// paper's vantage points.
type Scenario struct {
	Name string
	Geo  Geo
	// Duration of the capture.
	Duration time.Duration
	// StartHour is the local time of day at trace start (diurnal phase).
	StartHour float64
	// Clients monitored at the vantage point.
	Clients int
	// SessionRate is sessions per client per hour at peak load.
	SessionRate float64
	// DelayMu/DelaySigma parameterize the lognormal first-flow delay in
	// seconds; access technology shifts these (FTTH small, 3G large).
	DelayMu, DelaySigma float64
	// PrefetchFactor is DNS resolutions per fetched resource; the excess
	// above 1.0 is the useless-DNS mass (Table 9).
	PrefetchFactor float64
	// LatePrefetchProb is the chance a *fetched* resource was resolved by
	// the prefetcher long before its flow (the >10 s tail of Fig. 12).
	LatePrefetchProb float64
	// MobileFraction of clients join mid-trace with externally warmed
	// caches (3G mobility: their early flows miss).
	MobileFraction float64
	// TunnelFraction of sessions open flows with no DNS at all
	// (HTTP/HTTPS tunneling, the US-3G hit-ratio depressant).
	TunnelFraction float64
	// P2PFraction of clients run BitTorrent peers.
	P2PFraction float64
	// WarmCacheFraction of clients hold pre-trace cache entries, causing
	// warm-up misses in the first minutes.
	WarmCacheFraction float64
	// ServiceMix is the fraction of sessions hitting port-bound services
	// instead of web pages.
	ServiceMix float64
	// AppspotShare of sessions contact appspot.com services: BitTorrent
	// tracker announces and general web apps (the live window's Table 8
	// and Figs. 10/11). Zero builds no appspot model and draws nothing.
	AppspotShare float64
	// Seed drives all randomness.
	Seed uint64
}

// Trace is one generated capture plus the sidecars the experiments need.
type Trace struct {
	Scenario Scenario
	// Packets holds the frames in time order, ties in emission order. Each
	// Data is a view into a chunk of frame bytes shared with other
	// packets; it stays valid for the trace's lifetime, and its capacity
	// ends at its length, so an append copies instead of overwriting the
	// next frame.
	Packets []netio.Packet
	// Truth maps each flow to the FQDN the client actually intended —
	// ground truth for scoring only.
	Truth map[flows.Key]string
	// OrgDB is the IP → organization table (MaxMind substitute).
	OrgDB *orgdb.DB
	// PTRZone is the synthetic reverse zone: what an active reverse lookup
	// of each server address would return ("" entries are absent names).
	PTRZone map[netip.Addr]string
	// ServiceGT maps service ports to their human-readable ground truth
	// (the GT column of Tables 6/7).
	ServiceGT map[uint16]string
	// Flows counts generated flows (before any pipeline processing).
	Flows int
	// DNSResponses counts emitted DNS response packets.
	DNSResponses int
}

// Source returns a PacketSource replaying the trace once.
func (t *Trace) Source() *netio.LoopSource {
	return netio.NewLoopSource(t.Packets, 0, 1)
}

// TruthFunc adapts the sidecar for core.Config.Truth.
func (t *Trace) TruthFunc() func(flows.Key) string {
	return func(k flows.Key) string { return t.Truth[k] }
}

// client is the per-user simulation state.
type client struct {
	addr   netip.Addr
	rng    *stats.RNG
	cache  map[string]cacheEntry // fqdn -> cached resolution
	port   uint16
	join   time.Duration
	p2p    bool
	mobile bool
	// warm lists FQDNs resolved before the capture (or outside coverage)
	// that the client revisits: their flows appear with no preceding DNS,
	// the main cause of resolver misses in the paper's Table 2.
	warm []string
}

func (c *client) nextPort() uint16 {
	c.port++
	if c.port < 1024 {
		c.port = 1024
	}
	return c.port
}

// generator carries the in-flight state of one trace synthesis.
type generator struct {
	sc      Scenario
	u       *Universe
	rng     *stats.RNG
	builder layers.Builder
	frames  frameArena
	trace   *Trace

	// Scratch reused by every emitted DNS response and TCP payload: the
	// frame builder copies what it needs, and the arena keeps the frame.
	dnsRecs  []dnswire.Record
	dnsBuf   []byte
	c2s, s2c []byte

	orgPick  *stats.WeightedChoice
	orgs     []*Org
	svcPick  *stats.WeightedChoice
	services []*Service
	appspot  *appspotModel // nil unless AppspotShare > 0

	ldns    netip.Addr
	diurnal stats.Diurnal
	dnsID   uint16
	tailSeq int
}

// Generate synthesizes the full trace for a scenario.
func Generate(sc Scenario) *Trace {
	g := newGenerator(sc)
	g.run()
	g.trace.Packets = g.frames.packets()
	return g.trace
}

func newGenerator(sc Scenario) *generator {
	u := BuildUniverse(sc.Geo)
	g := &generator{
		sc:  sc,
		u:   u,
		rng: stats.NewRNG(sc.Seed),
		trace: &Trace{
			Scenario:  sc,
			Truth:     make(map[flows.Key]string),
			OrgDB:     u.OrgDB(),
			PTRZone:   make(map[netip.Addr]string),
			ServiceGT: make(map[uint16]string),
		},
		ldns:    netip.MustParseAddr("10.0.255.1"),
		diurnal: stats.Diurnal{PeakHour: 21, Floor: 0.25},
	}
	var ow []float64
	for _, o := range u.Orgs {
		g.orgs = append(g.orgs, o)
		ow = append(ow, o.Pop(sc.Geo))
	}
	g.orgPick = stats.NewWeightedChoice(ow)
	var sw []float64
	for _, s := range u.Services {
		g.services = append(g.services, s)
		sw = append(sw, s.Weight)
		g.trace.ServiceGT[s.Port] = s.GroundTruth
	}
	g.svcPick = stats.NewWeightedChoice(sw)
	if sc.AppspotShare > 0 {
		g.appspot = newAppspotModel(g.rng, sc.Duration)
	}
	return g
}

// hourOf converts a trace offset to local hour of day.
func (g *generator) hourOf(at time.Duration) float64 {
	h := g.sc.StartHour + at.Hours()
	for h >= 24 {
		h -= 24
	}
	return h
}

func (g *generator) run() {
	clients := g.makeClients()
	for _, c := range clients {
		g.runClient(c)
	}
}

func (g *generator) makeClients() []*client {
	out := make([]*client, 0, g.sc.Clients)
	for i := 0; i < g.sc.Clients; i++ {
		c := &client{
			addr:  netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			rng:   g.rng.Split(),
			cache: make(map[string]cacheEntry),
			port:  uint16(1024 + g.rng.Intn(30000)),
		}
		if g.rng.Bool(g.sc.MobileFraction) {
			// Mobile arrival: joins mid-trace with a warm external cache.
			c.mobile = true
			c.join = time.Duration(g.rng.Float64() * float64(g.sc.Duration) * 0.8)
			g.warmCache(c, 6)
		} else if g.rng.Bool(g.sc.WarmCacheFraction) {
			g.warmCache(c, 4)
		}
		c.p2p = g.rng.Bool(g.sc.P2PFraction)
		out = append(out, c)
	}
	return out
}

// warmCache seeds cache entries resolved before the capture started: the
// client will open flows for them without any visible DNS.
func (g *generator) warmCache(c *client, n int) {
	for i := 0; i < n; i++ {
		org := g.orgs[g.orgPick.Sample(c.rng)]
		fqdn, group, provider := g.pickName(c, org)
		servers := g.selectServers(c, c.join, fqdn, group, provider)
		if len(servers) == 0 {
			continue
		}
		c.cache[fqdn] = cacheEntry{
			expiry:   c.join + time.Duration((10+c.rng.Float64()*40)*float64(time.Minute)),
			servers:  servers,
			provider: provider,
			external: true,
		}
		c.warm = append(c.warm, fqdn)
	}
}

func (g *generator) runClient(c *client) {
	maxRate := g.sc.SessionRate // sessions/hour at peak
	if maxRate <= 0 {
		return
	}
	t := c.join
	for t < g.sc.Duration {
		// Poisson thinning against the diurnal profile.
		gap := c.rng.Exponential(1 / maxRate) // hours
		t += time.Duration(gap * float64(time.Hour))
		if t >= g.sc.Duration {
			break
		}
		if !c.rng.Bool(g.diurnal.Value(g.hourOf(t))) {
			continue
		}
		g.session(c, t)
	}
	if c.p2p {
		g.p2pActivity(c)
	}
}

// session generates one user action: a web page visit or a service contact.
func (g *generator) session(c *client, at time.Duration) {
	if g.appspot != nil && c.rng.Bool(g.sc.AppspotShare) {
		g.appspotSession(c, at)
		return
	}
	if c.rng.Bool(g.sc.ServiceMix) {
		g.serviceSession(c, at)
		return
	}
	if c.rng.Bool(g.sc.TunnelFraction) {
		g.tunnelSession(c, at)
		return
	}
	g.webSession(c, at)
}

// webSession models a page load: resolve + fetch the main resource, then a
// handful of embedded resources, plus prefetch-only resolutions.
func (g *generator) webSession(c *client, at time.Duration) {
	// Revisits of externally resolved names come first: these flows have no
	// DNS in the capture, so the resolver misses them (Table 2's gap).
	if len(c.warm) > 0 && c.rng.Bool(0.6) {
		fqdn := c.warm[c.rng.Intn(len(c.warm))]
		if e, ok := c.cache[fqdn]; ok && e.external && len(e.servers) > 0 {
			if e.expiry <= at && c.mobile && c.rng.Bool(0.6) {
				// Mobile device re-resolved while out of coverage: the
				// entry refreshes with no DNS visible at the vantage point.
				e.expiry = at + time.Duration((10+c.rng.Float64()*40)*float64(time.Minute))
				c.cache[fqdn] = e
			}
			if e.expiry > at {
				server := e.servers[c.rng.Intn(len(e.servers))]
				g.emitFlow(c, at+g.flowDelay(c), server, fqdn, e.provider, 0.3)
				return
			}
		}
	}
	org := g.orgs[g.orgPick.Sample(c.rng)]
	nRes := 1 + c.rng.Intn(3)
	fetched := 0
	for i := 0; i < nRes; i++ {
		o := org
		// Embedded third-party content: facebook pages pull fbcdn, etc.
		if i > 0 && c.rng.Bool(0.35) {
			o = g.relatedOrg(c, org)
		}
		fqdn, group, provider := g.pickName(c, o)
		g.resolveAndFetch(c, at+time.Duration(i)*50*time.Millisecond, fqdn, o, group, provider, true)
		fetched++
	}
	// Prefetch-only resolutions (useless DNS): browsers resolve every link
	// on the page; about half the responses are never used (Table 9).
	exact := float64(fetched) * (g.sc.PrefetchFactor - 1)
	extra := int(exact)
	if c.rng.Bool(exact - float64(extra)) {
		extra++
	}
	for i := 0; i < extra; i++ {
		o := org
		if c.rng.Bool(0.5) {
			o = g.orgs[g.orgPick.Sample(c.rng)]
		}
		fqdn, group, provider := g.pickName(c, o)
		g.resolveOnly(c, at+10*time.Millisecond, fqdn, group, provider)
	}
}

// relatedOrg returns a content org commonly embedded alongside base.
func (g *generator) relatedOrg(c *client, base *Org) *Org {
	related := map[string][]string{
		"facebook.com": {"fbcdn.net", "zynga.com", "akamai-embed"},
		"zynga.com":    {"fbcdn.net", "facebook.com"},
		"youtube.com":  {"google.com"},
		"twitter.com":  {"twimg.com"},
		"google.com":   {"blogspot.com", "youtube.com"},
	}
	if names, ok := related[base.SLD]; ok {
		if o := g.u.FindOrg(names[c.rng.Intn(len(names))]); o != nil {
			return o
		}
	}
	return g.orgs[g.orgPick.Sample(c.rng)]
}

// pickName selects an FQDN for the org plus the serving group/provider.
func (g *generator) pickName(c *client, org *Org) (string, *HostGroup, *Provider) {
	groups := org.Groups[g.sc.Geo]
	if len(groups) == 0 {
		for _, gs := range org.Groups {
			groups = gs
			break
		}
	}
	// Weighted group choice.
	total := 0.0
	for _, hg := range groups {
		total += hg.Weight
	}
	pick := c.rng.Float64() * total
	idx := len(groups) - 1
	for i := range groups {
		if pick < groups[i].Weight {
			idx = i
			break
		}
		pick -= groups[i].Weight
	}
	group := &groups[idx]
	provider := g.u.Providers[group.Provider]

	// Unbounded user-content tail (Fig. 6).
	if org.TailRate > 0 && c.rng.Bool(org.TailRate) {
		g.tailSeq++
		token := fmt.Sprintf("u%06x", g.tailSeq)
		pat := org.TailPattern
		if pat == "" {
			pat = "#"
		}
		host := replaceHash(pat, token)
		return host + "." + org.SLD, group, provider
	}
	np := group.Names[c.rng.Intn(len(group.Names))]
	host := np.Expand(c.rng.Intn(np.Variants()))
	return host + "." + org.SLD, group, provider
}

func replaceHash(pattern, token string) string {
	out := make([]byte, 0, len(pattern)+len(token))
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '#' {
			out = append(out, token...)
			continue
		}
		out = append(out, pattern[i])
	}
	return string(out)
}

// serviceSession contacts one port-bound service.
func (g *generator) serviceSession(c *client, at time.Duration) {
	svc := g.services[g.svcPick.Sample(c.rng)]
	var weights []float64
	for _, n := range svc.Names {
		weights = append(weights, n.Weight)
	}
	n := svc.Names[stats.NewWeightedChoice(weights).Sample(c.rng)]
	fqdn := replaceHash(n.FQDN, fmt.Sprint(1+c.rng.Intn(max(n.N, 1))))
	provider := g.u.Providers[svc.Provider]
	group := &HostGroup{Provider: svc.Provider, Servers: provider.Servers, Port: svc.Port}
	g.resolveAndFetch(c, at, fqdn, nil, group, provider, true)
}

// appspotSession resolves one appspot.com service and opens one HTTP flow
// to it: a tracker announce or a general app request.
func (g *generator) appspotSession(c *client, at time.Duration) {
	fqdn, kind := g.appspot.pick(c.rng, at)
	if fqdn == "" {
		return
	}
	group := &g.u.FindOrg("appspot.com").Groups[g.sc.Geo][0]
	provider := g.u.Providers[group.Provider]
	addrs := g.resolve(c, at, fqdn, group, provider)
	if len(addrs) == 0 {
		return
	}
	server := addrs[c.rng.Intn(len(addrs))]
	if flowAt := at + g.flowDelay(c); flowAt < g.sc.Duration {
		g.emitFlowKind(c, flowAt, server, 80, fqdn, provider, kind)
	}
}

// tunnelSession opens a flow with no DNS visibility at all — HTTP/HTTPS
// tunneling and VPN-over-443, the paper's hypothesis for US-3G's lower hit
// ratio.
func (g *generator) tunnelSession(c *client, at time.Duration) {
	provider := g.u.Providers["amazon"]
	servers := g.u.ServerAddrs("amazon")
	server := servers[c.rng.Intn(len(servers))]
	g.emitFlow(c, at, server, "", provider, 0.6)
}

// p2pActivity generates BitTorrent peer-wire flows (no DNS) and tracker
// announces (HTTP, labeled) for a P2P client.
func (g *generator) p2pActivity(c *client) {
	n := 3 + c.rng.Intn(12)
	for i := 0; i < n; i++ {
		at := time.Duration(c.rng.Float64() * float64(g.sc.Duration))
		if at < c.join {
			continue
		}
		// Random remote peer outside the monitored network.
		peer := netip.AddrFrom4([4]byte{
			byte(60 + c.rng.Intn(120)), byte(c.rng.Intn(256)),
			byte(c.rng.Intn(256)), byte(1 + c.rng.Intn(250)),
		})
		g.emitBT(c, at, peer)
	}
}
