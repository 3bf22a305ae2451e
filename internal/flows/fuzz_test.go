package flows

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/layers"
)

// --- reference model -------------------------------------------------------
//
// modelTable replicates the Table's observable semantics on top of a Go
// built-in map plus an explicit recency slice: same orientation rules, same
// TCP lifecycle, same early-stop idle expiry over the recency order, same
// emit order. The differential fuzz target drives both with the same packet
// sequence and requires identical emitted record streams — the swiss index,
// slab recycling, tombstone management, and intrusive list of the real
// table are all invisible if they are correct.

type modelFlow struct {
	rec            Record
	lastSeen       time.Duration // table clock at last touch (mirrors flow.lastSeen)
	c2sLen, s2cLen int
	classified     bool
}

type modelTable struct {
	idle       time.Duration
	clientNets []netip.Prefix
	autoSweep  bool
	flows      map[Key]*modelFlow
	order      []Key // least recently touched first
	stats      TableStats
	sweep      time.Duration
	clock      time.Duration // monotone max of packet times
	emitted    []Record
}

func newModel(cfg Config) *modelTable {
	idle := cfg.IdleTimeout
	if idle <= 0 {
		idle = 5 * time.Minute
	}
	return &modelTable{
		idle:       idle,
		clientNets: cfg.ClientNets,
		autoSweep:  !cfg.DisableAutoSweep,
		flows:      make(map[Key]*modelFlow),
	}
}

func (m *modelTable) touch(k Key) {
	for i, q := range m.order {
		if q == k {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.order = append(m.order, k)
}

func (m *modelTable) removeOrder(k Key) {
	for i, q := range m.order {
		if q == k {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// classify replicates Table.classify for the all-zero payloads the fuzz
// uses: no protocol matches except the UDP/53 rule, and the
// unknown-after-64-bytes cutoff. Such flows are never HTTP, so the close
// settles nothing (Table.classifyFinal).
func (m *modelTable) classify(f *modelFlow) {
	if !f.classified && f.c2sLen > 0 {
		if f.rec.Key.Proto == layers.IPProtocolUDP && (f.rec.Key.ServerPort == 53 || f.rec.Key.ClientPort == 53) {
			f.rec.L7 = L7DNS
			f.classified = true
		} else {
			f.classified = f.c2sLen >= 64
		}
	}
}

func (m *modelTable) finish(k Key, f *modelFlow, expired bool) {
	if expired {
		m.stats.FlowsExpired++
	} else {
		m.stats.FlowsClosed++
	}
	delete(m.flows, k)
	m.removeOrder(k)
	m.emitted = append(m.emitted, f.rec)
}

func (m *modelTable) add(d *layers.Decoded, at time.Duration) {
	if !d.HasTCP && !d.HasUDP {
		return
	}
	m.stats.Packets++
	if at > m.clock {
		m.clock = at
	}
	key := Key{ClientIP: d.SrcIP, ServerIP: d.DstIP, ClientPort: d.SrcPort, ServerPort: d.DstPort, Proto: d.Proto}
	c2s := true
	f, ok := m.flows[key]
	if !ok {
		rev := key.Reverse()
		if f, ok = m.flows[rev]; ok {
			key, c2s = rev, false
		}
	}
	if !ok {
		if !(d.HasTCP && d.TCPFlags.Has(layers.TCPSyn) && !d.TCPFlags.Has(layers.TCPAck)) &&
			len(m.clientNets) > 0 &&
			containsAddr(m.clientNets, d.DstIP) && !containsAddr(m.clientNets, d.SrcIP) {
			key, c2s = key.Reverse(), false
		}
		f = &modelFlow{rec: Record{Key: key, Start: at, End: at}}
		if d.HasTCP && d.TCPFlags.Has(layers.TCPSyn) && !d.TCPFlags.Has(layers.TCPAck) {
			f.rec.SawSYN = true
			f.rec.State = StateSynSent
		} else if d.HasTCP {
			f.rec.State = StateEstablished
		}
		m.flows[key] = f
		m.order = append(m.order, key)
		m.stats.FlowsCreated++
	} else {
		m.touch(key)
	}
	f.rec.End = at
	f.lastSeen = m.clock
	n := len(d.Payload)
	if c2s {
		f.rec.PktsC2S++
		f.rec.BytesC2S += uint64(n)
		f.c2sLen = min(f.c2sLen+n, prefixCap)
	} else {
		f.rec.PktsS2C++
		f.rec.BytesS2C += uint64(n)
		f.s2cLen = min(f.s2cLen+n, prefixCap)
	}
	if n > 0 {
		m.classify(f)
	}
	if d.HasTCP {
		switch {
		case d.TCPFlags.Has(layers.TCPRst):
			f.rec.State = StateReset
			m.finish(key, f, false)
		case d.TCPFlags.Has(layers.TCPFin):
			if f.rec.State == StateClosing {
				f.rec.State = StateClosed
				m.finish(key, f, false)
			} else if f.rec.State != StateClosed {
				f.rec.State = StateClosing
			}
		case d.TCPFlags.Has(layers.TCPSyn) && d.TCPFlags.Has(layers.TCPAck):
			if f.rec.State == StateSynSent {
				f.rec.State = StateEstablished
			}
		}
	}
	if m.autoSweep && at-m.sweep >= m.idle {
		m.sweep = at
		m.flushIdle(at)
	}
}

func (m *modelTable) flushIdle(now time.Duration) {
	for len(m.order) > 0 {
		k := m.order[0]
		f := m.flows[k]
		if now-f.lastSeen < m.idle {
			break
		}
		m.finish(k, f, true)
	}
}

func (m *modelTable) flushAll() {
	for len(m.order) > 0 {
		m.finish(m.order[0], m.flows[m.order[0]], false)
	}
}

// --- fuzz driver -----------------------------------------------------------

// The address pools hold IPv6 addresses and 4-in-6 twins of IPv4 ones
// (distinct keys that the client nets do not contain), so some keys are
// two IPv4 addresses, stored inline, and the rest take a side cell.
var (
	fuzzClients = []netip.Addr{
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"),
		netip.MustParseAddr("10.0.9.9"),
		netip.MustParseAddr("192.0.2.77"), // outside the client nets
		netip.MustParseAddr("fd00::1"),
		netip.MustParseAddr("::ffff:10.0.0.1"),
		netip.MustParseAddr("fd00::2"),
		netip.MustParseAddr("::ffff:192.0.2.77"),
	}
	fuzzServers = []netip.Addr{
		netip.MustParseAddr("203.0.113.1"),
		netip.MustParseAddr("203.0.113.2"),
		netip.MustParseAddr("203.0.113.3"),
		netip.MustParseAddr("198.51.100.4"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:203.0.113.1"),
		netip.MustParseAddr("2001:db8::2"),
		netip.MustParseAddr("::ffff:198.51.100.4"),
	}
)

// decodeOp turns 4 fuzz bytes into one packet (or a sweep), shared by both
// sides of the differential test. Time mostly advances like a capture, but
// the high delta bit encodes a small backward jump (multi-queue capture
// jitter) — exercising the monotone-clock expiry clamp.
func decodeOp(b []byte, cur time.Duration) (*layers.Decoded, time.Duration, bool) {
	if b[3]&0x80 != 0 {
		cur -= time.Duration(b[3]&0x7F) * 5 * time.Millisecond
		if cur < 0 {
			cur = 0
		}
	} else {
		cur += time.Duration(b[3]) * 37 * time.Millisecond
	}
	if b[0]&0x0F == 0x0F {
		return nil, cur, true // explicit FlushIdle
	}
	src := fuzzClients[int(b[0]>>4)&3|int(b[0]>>5)&4]
	dst := fuzzServers[int(b[1])&3|int(b[1]>>4)&4]
	sport := 40000 + uint16(b[1]>>2)&0x0F
	dport := uint16(80)
	if b[1]&0x80 != 0 {
		dport = 53
	}
	if b[0]&0x40 != 0 { // server-to-client direction
		src, dst = dst, src
		sport, dport = dport, sport
	}
	d := &layers.Decoded{HasIP: true, SrcIP: src, DstIP: dst, SrcPort: sport, DstPort: dport}
	if b[0]&0x20 != 0 {
		d.HasUDP = true
		d.Proto = layers.IPProtocolUDP
	} else {
		d.HasTCP = true
		d.Proto = layers.IPProtocolTCP
		switch b[2] & 0x07 {
		case 0:
			d.TCPFlags = layers.TCPSyn
		case 1:
			d.TCPFlags = layers.TCPSyn | layers.TCPAck
		case 2, 3:
			d.TCPFlags = layers.TCPAck
		case 4:
			d.TCPFlags = layers.TCPAck | layers.TCPPsh
		case 5, 6:
			d.TCPFlags = layers.TCPFin | layers.TCPAck
		default:
			d.TCPFlags = layers.TCPRst
		}
	}
	if n := int(b[2] >> 3); n > 0 {
		d.Payload = make([]byte, n) // zeros: exercises counters, prefix caps
	}
	return d, cur, false
}

func recordsEqual(a, b Record) bool {
	return a.Key == b.Key && a.Start == b.Start && a.End == b.End &&
		a.SawSYN == b.SawSYN && a.State == b.State &&
		a.PktsC2S == b.PktsC2S && a.PktsS2C == b.PktsS2C &&
		a.BytesC2S == b.BytesC2S && a.BytesS2C == b.BytesS2C &&
		a.L7 == b.L7 && a.HTTPHost == b.HTTPHost && a.SNI == b.SNI
}

// FuzzTableVsMapModel drives the swiss-table Table and the built-in-map
// reference model with the same packet sequence and requires identical
// emitted record streams (order included), identical live-flow counts, and
// identical statistics.
func FuzzTableVsMapModel(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x40, 0x00, 0x07, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0xFF, 0x0F, 0x00, 0x00, 0xFF})
	f.Add([]byte{0x10, 0x81, 0x20, 0x02, 0x50, 0x81, 0x20, 0x02, 0x0F, 0x00, 0x00, 0x80})
	f.Add([]byte{0x20, 0x03, 0xFF, 0x10, 0x60, 0x03, 0xFF, 0x10, 0x00, 0x00, 0x01, 0x00})
	f.Add([]byte{0x80, 0x40, 0x00, 0x01, 0xC0, 0x40, 0x01, 0x00, 0x90, 0x41, 0x04, 0x01, 0x50, 0x01, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{
			IdleTimeout: 2 * time.Second,
			ClientNets:  []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
		}
		var got []Record
		tbl := NewTable(Config{
			IdleTimeout: cfg.IdleTimeout,
			ClientNets:  cfg.ClientNets,
			OnRecord:    func(r Record, _ Handle) { got = append(got, r) },
		})
		mdl := newModel(cfg)

		var cur time.Duration
		for i := 0; i+4 <= len(data) && i < 4*4096; i += 4 {
			var d *layers.Decoded
			var sweep bool
			d, cur, sweep = decodeOp(data[i:i+4], cur)
			if sweep {
				tbl.FlushIdle(cur)
				mdl.flushIdle(cur)
			} else {
				tbl.Add(d, cur, nil)
				mdl.add(d, cur)
			}
			if tbl.Active() != len(mdl.flows) {
				t.Fatalf("op %d: active %d, model %d", i/4, tbl.Active(), len(mdl.flows))
			}
		}
		tbl.FlushAll()
		mdl.flushAll()

		if tbl.Stats() != mdl.stats {
			t.Fatalf("stats diverge:\n table %+v\n model %+v", tbl.Stats(), mdl.stats)
		}
		if len(got) != len(mdl.emitted) {
			t.Fatalf("emitted %d records, model %d", len(got), len(mdl.emitted))
		}
		for i := range got {
			if !recordsEqual(got[i], mdl.emitted[i]) {
				t.Fatalf("record %d diverges:\n table %+v\n model %+v", i, got[i], mdl.emitted[i])
			}
		}
	})
}

// TestTableMatchesModelSeeded runs the differential check over fixed
// pseudo-random op streams, so the model equivalence is exercised by plain
// `go test` runs too (fuzzing only executes the seed corpus there).
func TestTableMatchesModelSeeded(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		data := make([]byte, 4*2048)
		s := seed
		for i := range data {
			// splitmix64-ish byte stream
			s += 0x9E3779B97F4A7C15
			z := s
			z ^= z >> 30
			z *= 0xBF58476D1CE4E5B9
			z ^= z >> 27
			data[i] = byte(z >> 56)
		}
		var got []Record
		cfg := Config{IdleTimeout: 2 * time.Second, ClientNets: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
		tbl := NewTable(Config{IdleTimeout: cfg.IdleTimeout, ClientNets: cfg.ClientNets,
			OnRecord: func(r Record, _ Handle) { got = append(got, r) }})
		mdl := newModel(cfg)
		var cur time.Duration
		for i := 0; i+4 <= len(data); i += 4 {
			var d *layers.Decoded
			var sweep bool
			d, cur, sweep = decodeOp(data[i:i+4], cur)
			if sweep {
				tbl.FlushIdle(cur)
				mdl.flushIdle(cur)
				continue
			}
			tbl.Add(d, cur, nil)
			mdl.add(d, cur)
		}
		tbl.FlushAll()
		mdl.flushAll()
		if tbl.Stats() != mdl.stats {
			t.Fatalf("seed %d: stats diverge:\n table %+v\n model %+v", seed, tbl.Stats(), mdl.stats)
		}
		for i := range got {
			if !recordsEqual(got[i], mdl.emitted[i]) {
				t.Fatalf("seed %d: record %d diverges:\n table %+v\n model %+v", seed, i, got[i], mdl.emitted[i])
			}
		}
	}
}

// TestEmitOrderDeterministic pins the satellite fix for nondeterministic
// emit order: two tables (with independent random hash seeds) fed the same
// packets must emit identical record sequences — order included — so CSV
// output is byte-reproducible run to run.
func TestEmitOrderDeterministic(t *testing.T) {
	mk := func() (*Table, *[]Record) {
		var recs []Record
		tbl := NewTable(Config{IdleTimeout: time.Second,
			OnRecord: func(r Record, _ Handle) { recs = append(recs, r) }})
		return tbl, &recs
	}
	a, ra := mk()
	b, rb := mk()
	srv := netip.MustParseAddr("203.0.113.9")
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			cl := fuzzClients[i%len(fuzzClients)]
			syn := &layers.Decoded{HasIP: true, HasTCP: true, SrcIP: cl, DstIP: srv,
				Proto: layers.IPProtocolTCP, SrcPort: uint16(41000 + i), DstPort: 443, TCPFlags: layers.TCPSyn}
			at := time.Duration(round*50+i) * 13 * time.Millisecond
			a.Add(syn, at, nil)
			b.Add(syn, at, nil)
		}
		sweepAt := time.Duration(round+1) * 10 * time.Second
		a.FlushIdle(sweepAt)
		b.FlushIdle(sweepAt)
	}
	a.FlushAll()
	b.FlushAll()
	if len(*ra) != len(*rb) {
		t.Fatalf("emit counts differ: %d vs %d", len(*ra), len(*rb))
	}
	for i := range *ra {
		if !recordsEqual((*ra)[i], (*rb)[i]) {
			t.Fatalf("emit order diverges at %d:\n a %+v\n b %+v", i, (*ra)[i], (*rb)[i])
		}
	}
}

// TestFlushIdleVisitsOnlyExpired pins the O(expired) sweep: with many
// active flows and k idle ones, FlushIdle must examine k+1 slots — not the
// whole table.
func TestFlushIdleVisitsOnlyExpired(t *testing.T) {
	tbl := NewTable(Config{IdleTimeout: time.Minute})
	srv := netip.MustParseAddr("203.0.113.9")
	pktAt := func(port uint16, at time.Duration) {
		d := &layers.Decoded{HasIP: true, HasTCP: true,
			SrcIP: fuzzClients[0], DstIP: srv, Proto: layers.IPProtocolTCP,
			SrcPort: port, DstPort: 443, TCPFlags: layers.TCPSyn}
		tbl.Add(d, at, nil)
	}
	const idleFlows, activeFlows = 7, 1000
	for i := 0; i < idleFlows; i++ {
		pktAt(uint16(30000+i), 0)
	}
	for i := 0; i < activeFlows; i++ {
		pktAt(uint16(40000+i), 30*time.Second)
	}
	tbl.FlushIdle(80 * time.Second) // idle cutoff 20s: only the first batch expires
	if tbl.Stats().FlowsExpired != idleFlows {
		t.Fatalf("expired %d flows, want %d", tbl.Stats().FlowsExpired, idleFlows)
	}
	if tbl.Active() != activeFlows {
		t.Fatalf("active %d, want %d", tbl.Active(), activeFlows)
	}
	if tbl.sweepVisited > idleFlows+1 {
		t.Fatalf("sweep visited %d slots for %d expired flows (O(active) scan?)", tbl.sweepVisited, idleFlows)
	}
}

// BenchmarkFlushIdle demonstrates the sweep cost scaling with the number
// of expired flows, not the number of active ones: ns/op should be flat
// across active-table sizes for a fixed expiry batch.
func BenchmarkFlushIdle(b *testing.B) {
	srv := netip.MustParseAddr("203.0.113.9")
	for _, active := range []int{1_000, 10_000, 100_000} {
		b.Run(sizeLabel(active), func(b *testing.B) {
			const expirePer = 64
			tbl := NewTable(Config{IdleTimeout: time.Minute, DisableAutoSweep: true})
			pktAt := func(c netip.Addr, port uint16, at time.Duration) {
				d := &layers.Decoded{HasIP: true, HasTCP: true, SrcIP: c, DstIP: srv,
					Proto: layers.IPProtocolTCP, SrcPort: port, DstPort: 443, TCPFlags: layers.TCPAck}
				tbl.Add(d, at, nil)
			}
			cur := time.Duration(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Victims go idle at cur; the active population is touched
				// afterwards, so it sits behind the victims in recency order.
				for v := 0; v < expirePer; v++ {
					pktAt(fuzzClients[1], uint16(20000+v), cur)
				}
				for a := 0; a < active; a++ {
					pktAt(fuzzClients[0], uint16(a), cur+time.Millisecond)
				}
				b.StartTimer()
				tbl.FlushIdle(cur + time.Minute) // expires exactly the victims
				b.StopTimer()
				if got := tbl.Stats().FlowsExpired; got != uint64((i+1)*expirePer) {
					b.Fatalf("expired %d, want %d", got, (i+1)*expirePer)
				}
				cur += 2 * time.Minute
				b.StartTimer()
			}
			b.ReportMetric(expirePer, "expired/op")
		})
	}
}

func sizeLabel(n int) string {
	switch {
	case n >= 100_000:
		return "active=100k"
	case n >= 10_000:
		return "active=10k"
	default:
		return "active=1k"
	}
}
