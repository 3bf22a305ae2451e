// Package flows reconstructs transport-layer flows from decoded packets:
// the paper's "Flow Sniffer" (§3.1). Packets are aggregated on the 5-tuple
// (clientIP, serverIP, sPort, dPort, protocol), oriented so the initiator is
// the client, run through a compact TCP state machine, and classified at
// layer 7 (HTTP, TLS, P2P) from the first payload bytes — the same signals
// Tstat uses for the paper's ground truth.
//
// Table and the sharded dispatcher's Tracker are one keyed recency table
// (recency.go): a swiss.Index over a swiss.Slab of flow entries, recycled
// in place, with live flows threaded through an intrusive
// least-recently-touched list, so idle expiry visits only the flows it
// expires (plus one) instead of scanning the whole table, and every flush
// emits records in a deterministic order.
package flows

import (
	"bytes"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/dnswire"
	"repro/internal/layers"
	"repro/internal/swiss"
	"repro/internal/tlswire"
)

// Key identifies a flow, oriented client → server.
type Key struct {
	ClientIP   netip.Addr
	ServerIP   netip.Addr
	ClientPort uint16
	ServerPort uint16
	Proto      layers.IPProtocol
}

// String renders the key in a tcpdump-like form.
func (k Key) String() string {
	return fmt.Sprintf("%s %s:%d > %s:%d", k.Proto, k.ClientIP, k.ClientPort, k.ServerIP, k.ServerPort)
}

// Reverse returns the key with endpoints swapped.
func (k Key) Reverse() Key {
	return Key{
		ClientIP: k.ServerIP, ServerIP: k.ClientIP,
		ClientPort: k.ServerPort, ServerPort: k.ClientPort,
		Proto: k.Proto,
	}
}

// reverses reports whether k is o with its endpoints swapped.
func (k *Key) reverses(o *Key) bool {
	return k.ClientIP == o.ServerIP && k.ServerIP == o.ClientIP &&
		k.ClientPort == o.ServerPort && k.ServerPort == o.ClientPort && k.Proto == o.Proto
}

// hashKey mixes a key for table placement. The two (address, port)
// endpoint hashes combine by addition, so a key and its Reverse hash
// identically: one probe resolves a packet in either direction (the probe
// compares candidates against both orientations), where an
// orientation-sensitive hash would cost a full second probe for every
// server→client packet.
func hashKey(seed uint64, k Key) uint64 {
	a := swiss.HashU64(swiss.HashAddr(seed, k.ClientIP), uint64(k.ClientPort))
	b := swiss.HashU64(swiss.HashAddr(seed, k.ServerIP), uint64(k.ServerPort))
	return swiss.HashU64(a+b, uint64(k.Proto))
}

// L7Proto is the coarse application classification the paper reports hit
// ratios for (Table 2).
type L7Proto uint8

// Classification outcomes.
const (
	L7Unknown L7Proto = iota
	L7HTTP
	L7TLS
	L7P2P
	L7DNS
)

// String names the classification.
func (p L7Proto) String() string {
	switch p {
	case L7HTTP:
		return "HTTP"
	case L7TLS:
		return "TLS"
	case L7P2P:
		return "P2P"
	case L7DNS:
		return "DNS"
	default:
		return "OTHER"
	}
}

// TCPState is the connection lifecycle state.
type TCPState uint8

// TCP states tracked by the table.
const (
	StateNew TCPState = iota
	StateSynSent
	StateEstablished
	StateClosing
	StateClosed
	StateReset
)

// Record is one finished (or flushed) flow, the unit stored in the labeled
// flows database.
type Record struct {
	Key        Key
	Start, End time.Duration
	// SawSYN reports whether the flow was observed from its first segment,
	// which is when pre-flow tagging can act on it.
	SawSYN bool
	State  TCPState

	PktsC2S, PktsS2C   uint64
	BytesC2S, BytesS2C uint64

	L7 L7Proto
	// HasCert reports that the server sent a certificate whose subject
	// name decoded, so a nameless certificate (HasCert with CertName "")
	// is told apart from none.
	HasCert bool
	// HTTPHost is the Host header of the first request, when L7 == HTTP.
	HTTPHost string
	// SNI is the TLS server_name, when present.
	SNI string
	// CertName is the subject name of the leaf certificate (the first in
	// the chain whose name decoded), when HasCert.
	CertName string
}

// Handle identifies a live flow's slot in the table slab. It is stable for
// the flow's lifetime and delivered to both NewFlowFunc and OnRecord, so a
// caller can keep per-flow sidecar state in a dense slice instead of a
// keyed map. Handles are recycled after the flow's record is emitted.
type Handle uint32

// flow is a live flow's per-slot state in the Table's recency entries.
type flow struct {
	// classified: L7 and the name it carries (HTTPHost, SNI) are final.
	classified bool
	// inspected: the certificate inspection is final — a certificate was
	// read, or the server stream can no longer carry one.
	inspected bool
	// rec is the record being built; rec.Key repeats the entry's key so
	// that rec is emitted as is.
	rec Record
	// c2sPrefix and s2cPrefix hold the first payload bytes of each
	// direction, but only while something can still read them: c2s until
	// classified, s2c while the flow can still turn out to be TLS and
	// inspected is unset.
	c2sPrefix []byte
	s2cPrefix []byte
}

// prefixCap bounds the per-direction payload prefix retained for
// classification; enough for a ClientHello or an HTTP request head plus a
// ServerHello+Certificate flight.
const prefixCap = 4096

// Config tunes the table.
type Config struct {
	// IdleTimeout evicts flows with no traffic for this long. Zero means
	// the paper-style default of 5 minutes.
	IdleTimeout time.Duration
	// ClientNets orients flows when no SYN is seen: an address inside any
	// of these prefixes is the client. Empty falls back to
	// first-sender-is-client.
	ClientNets []netip.Prefix
	// OnRecord, when non-nil, receives each finished flow along with its
	// (about-to-be-recycled) table handle.
	OnRecord func(Record, Handle)
	// DisableAutoSweep turns off the amortized idle sweep inside Add. The
	// sharded engine sets it and expires flows via explicit ExpireFlow
	// calls driven by the dispatcher's Tracker, so every shard expires
	// flows at the same trace times as a single-threaded table.
	DisableAutoSweep bool
	// Seed fixes the swiss-index hash seed; 0 (the default) draws a random
	// one. The sharded engine shares one nonzero seed between its Tracker
	// and every shard table, so the dispatcher's per-packet key hash can
	// ship with the entry (OrientedPacket.Hash) instead of being
	// recomputed on the shard.
	Seed uint64
}

// Table reconstructs flows. Not safe for concurrent use.
type Table struct {
	recency[flow]
	cfg   Config
	stats TableStats
	sweep time.Duration // trace time of the last automatic idle sweep
	// frozen keeps the records finished while OnRecord is nil.
	frozen []Record
	// names interns the HTTP Host, SNI and certificate names; nameBuf is
	// the scratch a name is lowercased or decoded into before interning.
	names   *dnswire.Interner
	nameBuf []byte
	// sweepVisited counts the slots the last FlushIdle examined; tests use
	// it to pin the O(expired) sweep bound.
	sweepVisited int
}

// at returns the flow state at slot i.
func (t *Table) at(i uint32) *flow { return &t.node(i).val }

// TableStats counts table activity.
type TableStats struct {
	FlowsCreated uint64
	FlowsClosed  uint64
	FlowsExpired uint64
	Packets      uint64
}

// Add accumulates o into s (per-shard merge).
func (s *TableStats) Add(o TableStats) {
	s.FlowsCreated += o.FlowsCreated
	s.FlowsClosed += o.FlowsClosed
	s.FlowsExpired += o.FlowsExpired
	s.Packets += o.Packets
}

// NewTable creates a flow table.
func NewTable(cfg Config) *Table {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	t := &Table{cfg: cfg, names: dnswire.NewInterner(0)}
	t.init(cfg.Seed)
	return t
}

// Stats returns the accumulated counters.
func (t *Table) Stats() TableStats { return t.stats }

// NewFlowFunc is invoked by Add when a flow is first seen; the paper's
// pre-flow tagging hook (label available before any payload byte). The
// handle stays valid until OnRecord delivers the flow's record.
type NewFlowFunc func(key Key, at time.Duration, sawSYN bool, h Handle)

// Add processes one decoded packet at the given trace offset. onNew, when
// non-nil, fires for the first packet of every flow.
//
// The packet is oriented by the same rule as the dispatcher's Tracker
// (orient): one probe over the orientation-symmetric hash finds a live flow
// in either direction; a new one takes its client from a pure SYN, then the
// configured client networks, then the first sender.
func (t *Table) Add(d *layers.Decoded, at time.Duration, onNew NewFlowFunc) {
	if !d.HasTCP && !d.HasUDP {
		return
	}
	var key Key
	h, slot, c2s := t.orient(d, t.cfg.ClientNets, &key)
	t.addOriented(key, h, slot, c2s, d.HasTCP, d.TCPFlags, d.Payload, at, onNew)
}

// OrientedPacket is one pre-routed packet: the sharded dispatcher extracts
// the flow key and direction once at the reader stage (Tracker.Route), so
// shard tables skip the reverse-key probe and orientation rules entirely.
type OrientedPacket struct {
	// Key is the canonical client→server flow key. It MUST be exactly the
	// key Add would compute against this table's current entries; the
	// dispatcher guarantees that by mirroring the table's entry lifecycle.
	Key Key
	// C2S reports whether the packet travels client→server under Key.
	C2S bool
	// Hash, when nonzero, is hashKey(seed, Key) under the seed this table
	// was built with (Config.Seed, shared with the dispatcher's Tracker);
	// zero makes the table compute it. A nonzero Hash under a mismatched
	// seed corrupts the index — the engine guarantees the shared seed.
	Hash uint64
	// TCP reports a TCP segment (false: UDP datagram).
	TCP     bool
	Flags   layers.TCPFlags
	Payload []byte
}

// AddOriented processes one pre-routed packet. It is Add with the
// orientation hoisted to the caller; the two are behaviorally identical
// when the caller's key/direction mirror Add's decision.
func (t *Table) AddOriented(p *OrientedPacket, at time.Duration, onNew NewFlowFunc) {
	h := p.Hash
	if h == 0 {
		h = hashKey(t.seed, p.Key)
	}
	t.addOriented(p.Key, h, t.find(h, p.Key), p.C2S, p.TCP, p.Flags, p.Payload, at, onNew)
}

// addOriented is the shared post-orientation half of Add. slot is the
// flow's slab slot when it already exists, else noIdx.
func (t *Table) addOriented(key Key, h uint64, slot uint32, c2s, hasTCP bool, flags layers.TCPFlags, payload []byte, at time.Duration, onNew NewFlowFunc) {
	t.stats.Packets++
	if slot == noIdx {
		slot = t.add(key, h)
		f := t.at(slot)
		f.rec = Record{Key: key, Start: at, End: at}
		if pureSYN(hasTCP, flags) {
			f.rec.SawSYN = true
			f.rec.State = StateSynSent
		} else if hasTCP {
			f.rec.State = StateEstablished // midstream pickup
		}
		t.stats.FlowsCreated++
		if onNew != nil {
			onNew(key, at, f.rec.SawSYN, Handle(slot))
		}
	}
	t.touch(slot, at)
	f := t.at(slot)
	f.rec.End = at
	if c2s {
		f.rec.PktsC2S++
		f.rec.BytesC2S += uint64(len(payload))
	} else {
		f.rec.PktsS2C++
		f.rec.BytesS2C += uint64(len(payload))
	}
	if len(payload) > 0 {
		t.capture(f, payload, c2s)
	}
	if hasTCP {
		t.advanceTCP(f, flags, slot)
	}
	// Amortized idle sweep every IdleTimeout of trace time.
	if !t.cfg.DisableAutoSweep && at-t.sweep >= t.cfg.IdleTimeout {
		t.sweep = at
		t.FlushIdle(at)
	}
}

// capture appends payload to the flow's prefix in its direction, when
// anything can still read it, and classifies or inspects what grew.
func (t *Table) capture(f *flow, payload []byte, c2s bool) {
	if c2s {
		if f.classified {
			return
		}
		f.c2sPrefix = appendPrefix(f.c2sPrefix, payload)
		wasTLS := f.rec.L7 == L7TLS
		t.classify(f)
		if !wasTLS && f.rec.L7 == L7TLS && len(f.s2cPrefix) > 0 {
			t.inspect(f) // server bytes that arrived before the ClientHello
		}
		return
	}
	if f.inspected || !tlswire.MayLookLikeTLS(f.c2sPrefix) {
		return
	}
	f.s2cPrefix = appendPrefix(f.s2cPrefix, payload)
	if f.rec.L7 == L7TLS {
		t.inspect(f)
	}
}

// appendPrefix appends payload to p up to prefixCap bytes.
func appendPrefix(p, payload []byte) []byte {
	room := prefixCap - len(p)
	if room <= 0 {
		return p
	}
	if len(payload) > room {
		payload = payload[:room]
	}
	return append(p, payload...)
}

func (t *Table) advanceTCP(f *flow, flags layers.TCPFlags, slot uint32) {
	switch {
	case flags.Has(layers.TCPRst):
		f.rec.State = StateReset
		t.finish(slot)
	case flags.Has(layers.TCPFin):
		if f.rec.State == StateClosing {
			f.rec.State = StateClosed
			t.finish(slot)
		} else if f.rec.State != StateClosed {
			f.rec.State = StateClosing
		}
	case flags.Has(layers.TCPSyn) && flags.Has(layers.TCPAck):
		if f.rec.State == StateSynSent {
			f.rec.State = StateEstablished
		}
	}
}

// classify sets L7 from the client prefix, and marks the flow classified
// once no further client byte can change L7 or the name it carries.
func (t *Table) classify(f *flow) {
	p := f.c2sPrefix
	full := len(p) >= prefixCap
	switch {
	case isHTTPRequest(p):
		f.rec.L7 = L7HTTP
		// Until the prefix is full only a complete header line counts: the
		// value of a line still being received may grow.
		host, ok := httpHost(p, full)
		if ok {
			f.rec.HTTPHost = t.internLower(host)
		}
		f.classified = ok || full
	case tlswire.LooksLikeTLS(p):
		f.rec.L7 = L7TLS
		h := tlswire.Scan(p)
		if len(h.SNI) > 0 {
			f.rec.SNI = t.names.Intern(h.SNI)
		}
		f.classified = len(h.SNI) > 0 || h.Done || full
	case isBitTorrent(p):
		f.rec.L7 = L7P2P
		f.classified = true
	case f.rec.Key.Proto == layers.IPProtocolUDP && (f.rec.Key.ServerPort == 53 || f.rec.Key.ClientPort == 53):
		f.rec.L7 = L7DNS
		f.classified = true
	default:
		// Leave unknown; more bytes may arrive.
		f.classified = len(p) >= 64
	}
}

// inspect runs the certificate inspection over the server prefix of a TLS
// flow, and marks it final once a certificate was read or none can be.
func (t *Table) inspect(f *flow) {
	h := tlswire.Scan(f.s2cPrefix)
	if h.HasCert {
		t.nameBuf = h.AppendCertName(t.nameBuf[:0])
		f.rec.CertName, f.rec.HasCert = t.names.Intern(t.nameBuf), true
	}
	f.inspected = h.HasCert || h.Done || len(f.s2cPrefix) >= prefixCap
}

// internLower interns the lowercase form of b.
func (t *Table) internLower(b []byte) string {
	buf := t.nameBuf[:0]
	for _, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	t.nameBuf = buf
	return t.names.Intern(buf)
}

// httpMethods are the request-line prefixes isHTTPRequest matches,
// hoisted so the per-packet probe does not rebuild the table.
var httpMethods = [][]byte{
	[]byte("GET "), []byte("POST "), []byte("HEAD "), []byte("PUT "),
	[]byte("DELETE "), []byte("OPTIONS "), []byte("CONNECT "),
}

func isHTTPRequest(p []byte) bool {
	for _, m := range httpMethods {
		if bytes.HasPrefix(p, m) {
			return true
		}
	}
	return false
}

// hostPrefix is the header name matched by httpHost.
var hostPrefix = []byte("host:")

// httpHost finds the first Host header line in a request head prefix and
// returns its trimmed value, aliasing p. The last line counts only when
// partial is set: without its newline it may still be growing.
func httpHost(p []byte, partial bool) ([]byte, bool) {
	for len(p) > 0 {
		line := p
		if i := bytes.IndexByte(p, '\n'); i >= 0 {
			line = p[:i]
			p = p[i+1:]
		} else if partial {
			p = nil
		} else {
			return nil, false
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > 5 && bytes.EqualFold(line[:5], hostPrefix) {
			return bytes.TrimSpace(line[5:]), true
		}
	}
	return nil, false
}

// btProto is the BT handshake protocol string, hoisted off the probe.
var btProto = []byte("BitTorrent protocol")

// isBitTorrent recognizes the BT peer-wire handshake.
func isBitTorrent(p []byte) bool {
	return len(p) >= 20 && p[0] == 19 && bytes.HasPrefix(p[1:], btProto)
}

// finish emits a record and removes the flow (close transitions).
func (t *Table) finish(i uint32) {
	t.stats.FlowsClosed++
	t.close(i)
}

// expire emits a record and removes the flow (idle expiry).
func (t *Table) expire(i uint32) {
	t.stats.FlowsExpired++
	t.close(i)
}

// close settles slot i's record, frees the slot and emits the record. The
// record escapes by value; the slot keeps its prefix buffers' capacity for
// the next flow, so a steady flow arrival/departure rate creates no garbage.
func (t *Table) close(i uint32) {
	f := t.at(i)
	t.classifyFinal(f)
	t.remove(i)
	t.emit(f.rec, Handle(i))
	*f = flow{c2sPrefix: f.c2sPrefix[:0], s2cPrefix: f.s2cPrefix[:0]}
}

// classifyFinal settles a flow at close. Every prefix was classified and
// inspected as it grew, so the only result still open is an HTTP Host
// header whose line never completed: the prefix will not grow now, so the
// partial line counts.
func (t *Table) classifyFinal(f *flow) {
	if !f.classified && f.rec.L7 == L7HTTP {
		if host, ok := httpHost(f.c2sPrefix, true); ok {
			f.rec.HTTPHost = t.internLower(host)
		}
	}
}

func (t *Table) emit(r Record, h Handle) {
	if t.cfg.OnRecord != nil {
		t.cfg.OnRecord(r, h)
		return
	}
	t.frozen = append(t.frozen, r)
}

// FlushIdle closes every flow idle longer than the configured timeout as
// of now. The recency list is ordered by the table clock — a monotone
// quantity, not the raw (possibly jittering) packet timestamp — so the
// sweep stops at the first active flow: O(expired), not O(active), exact
// for any input ordering, and the emit order (idle-first) is deterministic
// for a given packet sequence.
func (t *Table) FlushIdle(now time.Duration) {
	t.sweepVisited = t.sweepIdle(now, t.cfg.IdleTimeout, t.expire)
}

// ExpireFlow expires one specific flow, regardless of its idle time; a
// no-op when the key is not present. hash, when nonzero, must be the
// key's hash under this table's seed (the dispatcher ships the tracker's
// cached one); zero makes the table compute it. The sharded engine's
// dispatcher decides the expired set centrally (Tracker.ExpireIdle, which
// applies FlushIdle's exact rule to the global packet order) and delivers
// one ExpireFlow per victim in-band, so shard tables expire exactly the
// flows a single-threaded table would, in the same relative order.
func (t *Table) ExpireFlow(key Key, hash uint64) {
	if hash == 0 {
		hash = hashKey(t.seed, key)
	}
	if i := t.find(hash, key); i != noIdx {
		t.expire(i)
	}
}

// FlushAll closes every remaining flow (end of trace), emitting in recency
// order (least recently touched first) — deterministic for a given packet
// sequence, where map iteration once made the order vary run to run.
func (t *Table) FlushAll() {
	for t.head != noIdx {
		t.finish(t.head)
	}
}
