package synth

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/orgdb"
	"repro/internal/stats"
)

// events.go implements "event mode": the same generative model emitting
// pre-labeled resolver/flow events instead of packets, so multi-day
// horizons (the paper's 18-day live deployment: Fig. 6 birth processes,
// Fig. 10/11 and Table 8 appspot tracking) stay tractable. Wire mode and
// event mode share the universe; event mode bypasses packet serialization
// only, because the live-window experiments read labeled flows, never
// packets.

// LiveScenario parameterizes an event-mode run.
type LiveScenario struct {
	Days           int
	Clients        int
	SessionsPerDay int // across all clients, at peak-day rate
	Geo            Geo
	Seed           uint64
}

// DefaultLive18d mirrors the paper's April 2012 deployment window.
func DefaultLive18d(seed uint64) LiveScenario {
	return LiveScenario{Days: 18, Clients: 150, SessionsPerDay: 18000, Geo: GeoEU1, Seed: seed}
}

// DNSEvent is one observed resolution in event mode.
type DNSEvent struct {
	At     time.Duration
	Client netip.Addr
	FQDN   string
	Addrs  []netip.Addr
}

// EventTrace is the event-mode output.
type EventTrace struct {
	Scenario LiveScenario
	DNS      []DNSEvent
	Flows    []flowdb.LabeledFlow
	OrgDB    *orgdb.DB
	// TrackerIDs maps appspot tracker FQDNs to their first-seen order
	// (the y-axis of Fig. 11).
	TrackerIDs map[string]int
}

// trackerSpec models one appspot BitTorrent tracker's activity pattern
// (§5.6, Fig. 11).
type trackerSpec struct {
	fqdn string
	// kind: 0 = always on, 1 = synchronized on/off group, 2 = sporadic,
	// 3 = dies partway (zombie: still resolved, no content after death).
	kind  int
	born  time.Duration
	death time.Duration
}

// GenerateEvents runs event mode.
func GenerateEvents(sc LiveScenario) *EventTrace {
	u := BuildUniverse(sc.Geo)
	rng := stats.NewRNG(sc.Seed)
	tr := &EventTrace{
		Scenario:   sc,
		OrgDB:      u.OrgDB(),
		TrackerIDs: make(map[string]int),
	}
	total := time.Duration(sc.Days) * 24 * time.Hour
	diurnal := stats.Diurnal{PeakHour: 21, Floor: 0.25}

	// Appspot population: ~7% trackers, the rest general apps (Table 8's
	// 56 vs 824 split at full scale; proportional here).
	const nTrackers = 45
	const nGeneral = 560
	trackers := make([]trackerSpec, nTrackers)
	for i := range trackers {
		t := &trackers[i]
		t.fqdn = fmt.Sprintf("bt-tracker-%02d.appspot.com", i+1)
		switch {
		case i < 15:
			t.kind = 0 // persistently active (the paper's red ids 1–15)
			t.born = 0
			t.death = total
		case i >= 25 && i < 31:
			t.kind = 1 // synchronized swarm group (blue ids 26–31)
			t.born = time.Duration(float64(total) * 0.3)
			t.death = total
		case rng.Bool(0.5):
			t.kind = 2
			t.born = time.Duration(rng.Float64() * float64(total) * 0.7)
			t.death = total
		default:
			t.kind = 3 // runs out of quota and dies (zombie)
			t.born = time.Duration(rng.Float64() * float64(total) * 0.4)
			t.death = t.born + time.Duration(rng.Float64()*float64(total)*0.5)
		}
	}
	generalApps := make([]string, nGeneral)
	for i := range generalApps {
		generalApps[i] = fmt.Sprintf("webapp-%03d.appspot.com", i)
	}

	// Popularity samplers.
	var orgW []float64
	for _, o := range u.Orgs {
		orgW = append(orgW, o.Pop(sc.Geo))
	}
	orgPick := stats.NewWeightedChoice(orgW)
	genPick := stats.NewZipf(nGeneral, 1.1)

	clients := make([]netip.Addr, sc.Clients)
	for i := range clients {
		clients[i] = netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
	}
	gen := &generator{sc: Scenario{Geo: sc.Geo, Duration: total}, u: u, rng: rng.Split(), diurnal: diurnal,
		trace: &Trace{Truth: map[flows.Key]string{}, PTRZone: map[netip.Addr]string{}, ServiceGT: map[uint16]string{}}}

	// syncActive precomputes the on/off pattern of the synchronized group:
	// shared 4-hour activity windows.
	syncWindows := make(map[int]bool)
	for w := 0; w < int(total/(4*time.Hour)); w++ {
		syncWindows[w] = rng.Bool(0.45)
	}
	trackerActive := func(t *trackerSpec, at time.Duration) bool {
		if at < t.born || at >= t.death {
			return false
		}
		switch t.kind {
		case 0:
			return rng.Bool(0.95)
		case 1:
			return syncWindows[int(at/(4*time.Hour))]
		default:
			return rng.Bool(0.35)
		}
	}

	// Session loop: Poisson arrivals thinned by the diurnal profile.
	perDay := float64(sc.SessionsPerDay)
	meanGap := 24.0 / perDay // hours between sessions at peak
	cli := rng.Split()
	clientState := make(map[netip.Addr]*client)
	getClient := func(a netip.Addr) *client {
		c, ok := clientState[a]
		if !ok {
			c = &client{addr: a, rng: cli.Split(), cache: map[string]cacheEntry{}, port: uint16(1024 + cli.Intn(30000))}
			clientState[a] = c
		}
		return c
	}

	at := time.Duration(0)
	trackerSeq := 0
	for {
		at += time.Duration(rng.Exponential(meanGap) * float64(time.Hour))
		if at >= total {
			break
		}
		hour := at.Hours()
		for hour >= 24 {
			hour -= 24
		}
		if !rng.Bool(diurnal.Value(hour)) {
			continue
		}
		c := getClient(clients[rng.Intn(len(clients))])

		// 6% of sessions hit appspot (trackers dominate its flow count:
		// Table 8 reports 186K tracker vs 77K general flows).
		if rng.Bool(0.06) {
			if rng.Bool(0.85) {
				// Tracker announce. BitTorrent clients re-announce to the
				// same popular trackers, so the persistent ones dominate.
				ti := rng.Intn(nTrackers)
				if rng.Bool(0.8) {
					ti = rng.Intn(15)
				}
				t := &trackers[ti]
				if !trackerActive(t, at) {
					continue
				}
				if _, seen := tr.TrackerIDs[t.fqdn]; !seen {
					trackerSeq++
					tr.TrackerIDs[t.fqdn] = trackerSeq
				}
				tr.emit(gen, c, at, t.fqdn, u, "google", 80, 1200, 2200)
			} else {
				app := generalApps[genPick.Sample(rng)]
				tr.emit(gen, c, at, app, u, "google", 80, 3800, 64000)
			}
			continue
		}

		// Regular web traffic drives the Fig. 6 birth processes.
		org := u.Orgs[orgPick.Sample(rng)]
		fqdn, group, provider := gen.pickName(c, org)
		port := uint16(80)
		if cli.Bool(group.TLSFrac) {
			port = 443
		}
		tr.emit(gen, c, at, fqdn, u, provider.Name, port, 600+int64(rng.Intn(2000)), 2000+int64(rng.Intn(30000)))
	}
	sort.Slice(tr.Flows, func(i, j int) bool { return tr.Flows[i].Start < tr.Flows[j].Start })
	sort.Slice(tr.DNS, func(i, j int) bool { return tr.DNS[i].At < tr.DNS[j].At })
	return tr
}

// emit appends one DNS event (on client-cache miss) and one labeled flow.
func (tr *EventTrace) emit(gen *generator, c *client, at time.Duration, fqdn string, u *Universe, providerName string, port uint16, c2s, s2c int64) {
	provider := u.Providers[providerName]
	group := &HostGroup{Provider: providerName, Servers: provider.Servers}
	addrs := gen.resolve2(c, at, fqdn, group, provider, func(ev DNSEvent) {
		tr.DNS = append(tr.DNS, ev)
	})
	if len(addrs) == 0 {
		return
	}
	server := addrs[c.rng.Intn(len(addrs))]
	lf := flowdb.LabeledFlow{
		Record: flows.Record{
			Key: flows.Key{
				ClientIP: c.addr, ServerIP: server,
				ClientPort: c.nextPort(), ServerPort: port,
				Proto: layers.IPProtocolTCP,
			},
			Start: at, End: at + time.Duration(1+c.rng.Intn(20))*time.Second,
			PktsC2S: uint64(c2s/1200 + 1), PktsS2C: uint64(s2c/1200 + 1),
			BytesC2S: uint64(c2s), BytesS2C: uint64(s2c),
			L7: flows.L7HTTP, SawSYN: true,
		},
		Label: fqdn, Labeled: true, PreFlow: true,
	}
	tr.Flows = append(tr.Flows, lf)
}

// resolve2 is resolve with an event sink instead of packet emission.
func (g *generator) resolve2(c *client, at time.Duration, fqdn string, group *HostGroup, provider *Provider, sink func(DNSEvent)) []netip.Addr {
	if e, ok := c.cache[fqdn]; ok && e.expiry > at && len(e.servers) > 0 {
		return e.servers
	}
	addrs := g.selectServers(c, at, fqdn, group, provider)
	if len(addrs) == 0 {
		return nil
	}
	sink(DNSEvent{At: at, Client: c.addr, FQDN: fqdn, Addrs: addrs})
	ttl := g.ttlFor(provider)
	if ttl > time.Hour {
		ttl = time.Hour
	}
	c.cache[fqdn] = cacheEntry{expiry: at + time.Duration(float64(ttl)*(0.5+0.5*c.rng.Float64())), servers: addrs}
	return addrs
}
