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

	"repro/internal/layers"
	"repro/internal/names"
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
// caller can reach the flow's Tag (Table.Tag) without a keyed lookup.
// Handles are recycled after the flow's record is emitted.
type Handle uint32

// Tag is the label the table's owner attaches to a flow when it begins
// (paper Alg. 1: the pre-flow tag) and reads back with the flow's record. It
// lives in the flow's slot, is zero when the flow begins, and is zeroed
// after the flow's record is emitted.
type Tag struct {
	// DNSAt is the trace time of the DNS response that labeled the flow.
	DNSAt time.Duration
	// Label is the ID, in the table's name table, of the FQDN the flow was
	// labeled with; 0 ("") on a miss. The table keeps the name filed while
	// the flow lives (holdNames).
	Label uint32
	// Hit reports a label; PreFlow that it was attached at the flow's first
	// segment; FirstUse that the flow was the first its DNS entry labeled.
	Hit, PreFlow, FirstUse bool
}

// flow is a live flow's per-slot state in the Table's recency entries: the
// record being built, less its Key, which the entry already holds (close
// joins the two), and the owner's Tag.
type flow struct {
	start, end         time.Duration
	pktsC2S, pktsS2C   uint64
	bytesC2S, bytesS2C uint64
	tag                Tag
	// The flow's HTTP Host, SNI and certificate name, as IDs in the
	// table's name table, kept filed while the flow lives (holdNames).
	httpHost, sni, certName uint32
	// pre is 1 + the index in Table.pres of the flow's prefix buffers, or
	// 0 until the flow first needs one. It stays with the slot across
	// reuse, so warm churn allocates nothing.
	pre     uint32
	sawSYN  bool
	state   TCPState
	l7      L7Proto
	hasCert bool
	// classified: L7 and the name it carries (HTTPHost, SNI) are final.
	classified bool
	// inspected: the certificate inspection is final — a certificate was
	// read, or the server stream can no longer carry one.
	inspected bool
}

// prefixes are a flow's payload prefixes: client bytes until the flow is
// classified, server bytes while the flow can still turn out to be TLS and
// is not inspected. A first client payload that classifies the flow is
// read in place and never copied here.
type prefixes struct{ c2s, s2c []byte }

// preOf returns f's prefix buffers, or nil when it has none.
func (t *Table) preOf(f *flow) *prefixes {
	if f.pre == 0 {
		return nil
	}
	return t.pres.At(f.pre - 1)
}

// c2sPrefix returns the client bytes copied so far.
func (t *Table) c2sPrefix(f *flow) []byte {
	if p := t.preOf(f); p != nil {
		return p.c2s
	}
	return nil
}

// prefixes returns f's prefix buffers, taking a slot for them on first
// need.
func (t *Table) prefixes(f *flow) *prefixes {
	if f.pre == 0 {
		f.pre = t.pres.Alloc() + 1
	}
	return t.pres.At(f.pre - 1)
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
	// pres holds the prefix buffers of the flows that needed one (flow.pre),
	// so the flow entries themselves hold no pointer.
	pres  swiss.Slab[prefixes]
	cfg   Config
	stats TableStats
	sweep time.Duration // trace time of the last automatic idle sweep
	// frozen keeps the records finished while OnRecord is nil.
	frozen []Record
	// names files the flows' labels and the HTTP Host, SNI and certificate
	// names they carry; nameBuf is the scratch a name is lowercased or
	// decoded into before filing.
	names   *names.Table
	nameBuf []byte
	// sweepVisited counts the slots the last FlushIdle examined; tests use
	// it to pin the O(expired) sweep bound.
	sweepVisited int
}

// at returns the flow state at slot i.
func (t *Table) at(i uint32) *flow { return &t.node(i).val }

// Tag returns the tag of the live flow with handle h. The pointer stays
// valid until that flow's OnRecord returns.
func (t *Table) Tag(h Handle) *Tag { return &t.at(uint32(h)).tag }

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

// NewTable creates a flow table with a name table of its own.
func NewTable(cfg Config) *Table { return NewTableWithNames(cfg, names.New()) }

// NewTableWithNames creates a flow table that files names in nt: a
// pipeline shares one name table between its DNS decoder, its resolver and
// its flow table, so a flow's label is the ID its Clist entry holds.
func NewTableWithNames(cfg Config, nt *names.Table) *Table {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	t := &Table{cfg: cfg, names: nt}
	t.init(cfg.Seed)
	nt.Hold(t.holdNames)
	return t
}

// holdNames hands keep every name a live flow holds: a sweep of the name
// table keeps them, so the flows count no references.
func (t *Table) holdNames(keep func(id uint32)) {
	for i := t.head; i != noIdx; i = t.node(i).next {
		f := t.at(i)
		keep(f.tag.Label)
		keep(f.httpHost)
		keep(f.sni)
		keep(f.certName)
	}
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
	var key packedKey
	h, slot, c2s := t.orient(d, t.cfg.ClientNets, &key)
	t.addOriented(&key, h, slot, c2s, d.HasTCP, d.TCPFlags, d.Payload, at, onNew)
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
	// Hash, when nonzero, is Key's hash under the seed this table was
	// built with (Config.Seed, shared with the dispatcher's Tracker);
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
	var key packedKey
	key.set(p.Key.ClientIP, p.Key.ServerIP, p.Key.ClientPort, p.Key.ServerPort, p.Key.Proto)
	h := p.Hash
	if h == 0 {
		h = key.hash(t.seed)
	}
	t.addOriented(&key, h, t.find(h, &key), p.C2S, p.TCP, p.Flags, p.Payload, at, onNew)
}

// addOriented is the shared post-orientation half of Add. slot is the
// flow's slab slot when it already exists, else noIdx.
func (t *Table) addOriented(key *packedKey, h uint64, slot uint32, c2s, hasTCP bool, flags layers.TCPFlags, payload []byte, at time.Duration, onNew NewFlowFunc) {
	t.stats.Packets++
	if slot == noIdx {
		slot = t.add(key, h)
		f := t.at(slot)
		f.start = at
		if pureSYN(hasTCP, flags) {
			f.sawSYN = true
			f.state = StateSynSent
		} else if hasTCP {
			f.state = StateEstablished // midstream pickup
		}
		t.stats.FlowsCreated++
		if onNew != nil {
			onNew(key.key(), at, f.sawSYN, Handle(slot))
		}
	}
	t.touch(slot, at)
	f := t.at(slot)
	f.end = at
	if c2s {
		f.pktsC2S++
		f.bytesC2S += uint64(len(payload))
	} else {
		f.pktsS2C++
		f.bytesS2C += uint64(len(payload))
	}
	if len(payload) > 0 {
		t.capture(f, key, payload, c2s)
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

// capture classifies or inspects a flow's payload in its direction while
// anything can still read it, copying the bytes into the flow's prefix only
// when a later segment must be read with them.
func (t *Table) capture(f *flow, key *packedKey, payload []byte, c2s bool) {
	if c2s {
		if f.classified {
			return
		}
		wasTLS := f.l7 == L7TLS
		if pre := t.preOf(f); pre != nil && len(pre.c2s) > 0 {
			pre.c2s = appendPrefix(pre.c2s, payload)
			t.classify(f, key, pre.c2s)
		} else {
			// A first payload is classified where it lies, and copied only
			// if it leaves the flow open.
			p := payload[:min(len(payload), prefixCap)]
			t.classify(f, key, p)
			if !f.classified {
				pre := t.prefixes(f)
				pre.c2s = append(pre.c2s, p...)
			}
		}
		if pre := t.preOf(f); !wasTLS && f.l7 == L7TLS && pre != nil && len(pre.s2c) > 0 {
			t.inspect(f) // server bytes that arrived before the ClientHello
		}
		return
	}
	if f.inspected || f.classified && f.l7 != L7TLS || !tlswire.MayLookLikeTLS(t.c2sPrefix(f)) {
		return
	}
	pre := t.prefixes(f)
	pre.s2c = appendPrefix(pre.s2c, payload)
	if f.l7 == L7TLS {
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
		f.state = StateReset
		t.finish(slot)
	case flags.Has(layers.TCPFin):
		if f.state == StateClosing {
			f.state = StateClosed
			t.finish(slot)
		} else if f.state != StateClosed {
			f.state = StateClosing
		}
	case flags.Has(layers.TCPSyn) && flags.Has(layers.TCPAck):
		if f.state == StateSynSent {
			f.state = StateEstablished
		}
	}
}

// classify sets L7 from the client prefix p of the flow keyed key, and
// marks the flow classified once no further client byte can change L7 or
// the name it carries. A name is filed by copy (name), so p may be a
// packet's payload.
func (t *Table) classify(f *flow, key *packedKey, p []byte) {
	full := len(p) >= prefixCap
	switch {
	case isHTTPRequest(p):
		f.l7 = L7HTTP
		// Until the prefix is full only a complete header line counts: the
		// value of a line still being received may grow.
		host, ok := httpHost(p, full)
		if ok {
			f.httpHost = t.lowerName(f, host)
		}
		f.classified = ok || full
	case tlswire.LooksLikeTLS(p):
		f.l7 = L7TLS
		h := tlswire.Scan(p)
		if len(h.SNI) > 0 {
			f.sni = t.name(f, h.SNI)
		}
		f.classified = len(h.SNI) > 0 || h.Done || full
	case isBitTorrent(p):
		f.l7 = L7P2P
		f.classified = true
	case key.proto == layers.IPProtocolUDP && (key.serverPort == 53 || key.clientPort == 53):
		f.l7 = L7DNS
		f.classified = true
	default:
		// Leave unknown; more bytes may arrive.
		f.classified = len(p) >= 64
	}
}

// inspect runs the certificate inspection over the server prefix of a TLS
// flow, and marks it final once a certificate was read or none can be.
func (t *Table) inspect(f *flow) {
	s2c := t.preOf(f).s2c
	h := tlswire.Scan(s2c)
	if h.HasCert {
		t.nameBuf = h.AppendCertName(t.nameBuf[:0])
		f.certName, f.hasCert = t.name(f, t.nameBuf), true
	}
	f.inspected = h.HasCert || h.Done || len(s2c) >= prefixCap
}

// name returns the ID of the name b spells: f's label when b spells it — a
// Host, SNI or certificate name usually repeats the name the client
// resolved, so it costs one compare and no probe — else b filed. Filing
// may first sweep the name table: the live flows' names are held
// (holdNames), so no ID the table hands out goes unkept across the call.
func (t *Table) name(f *flow, b []byte) uint32 {
	if string(b) == t.names.Str(f.tag.Label) {
		return f.tag.Label
	}
	t.names.Collect()
	return t.names.Intern(b)
}

// lowerName is name applied to the lowercase form of b.
func (t *Table) lowerName(f *flow, b []byte) uint32 {
	buf := t.nameBuf[:0]
	for _, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	t.nameBuf = buf
	return t.name(f, buf)
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

// close settles slot i's record, frees the slot and emits the record,
// joined with the entry's key. The record escapes by value; the slot keeps
// its prefix buffers' capacity for the next flow, so a steady flow
// arrival/departure rate creates no garbage.
func (t *Table) close(i uint32) {
	r := t.settle(i)
	t.remove(i)
	t.emit(r, Handle(i))
	f := t.at(i)
	if p := t.preOf(f); p != nil {
		p.c2s, p.s2c = p.c2s[:0], p.s2c[:0]
	}
	*f = flow{pre: f.pre}
}

// settle classifies slot i's flow for the last time and returns its
// record. Every prefix was classified and inspected as it grew, so the
// only result still open is an HTTP Host header whose line never
// completed: the prefix will not grow now, so the partial line counts.
func (t *Table) settle(i uint32) Record {
	e := t.node(i)
	f := &e.val
	if !f.classified && f.l7 == L7HTTP {
		if host, ok := httpHost(t.c2sPrefix(f), true); ok {
			f.httpHost = t.lowerName(f, host)
		}
	}
	n := t.names
	return Record{
		Key: e.key.key(), Start: f.start, End: f.end, SawSYN: f.sawSYN, State: f.state,
		PktsC2S: f.pktsC2S, PktsS2C: f.pktsS2C, BytesC2S: f.bytesC2S, BytesS2C: f.bytesS2C,
		L7: f.l7, HasCert: f.hasCert, HTTPHost: n.Str(f.httpHost), SNI: n.Str(f.sni), CertName: n.Str(f.certName),
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
	var pk packedKey
	pk.set(key.ClientIP, key.ServerIP, key.ClientPort, key.ServerPort, key.Proto)
	if hash == 0 {
		hash = pk.hash(t.seed)
	}
	if i := t.find(hash, &pk); i != noIdx {
		t.expire(i)
	}
}

// FlushAll closes every remaining flow (end of trace), emitting in recency
// order (least recently touched first) — deterministic for a given packet
// sequence, where map iteration once made the order vary run to run. It
// walks the recency list once, settling and emitting each flow in place,
// and then empties the index and the slab at once, without a probe per
// flow. The prefix buffers go with them.
func (t *Table) FlushAll() {
	for i := t.head; i != noIdx; i = t.node(i).next {
		r := t.settle(i)
		t.stats.FlowsClosed++
		t.emit(r, Handle(i))
	}
	t.head, t.tail = noIdx, noIdx
	t.idx.Reset()
	t.slab.Reset()
	t.pres.Reset()
}
