// Package flows reconstructs transport-layer flows from decoded packets:
// the paper's "Flow Sniffer" (§3.1). Packets are aggregated on the 5-tuple
// (clientIP, serverIP, sPort, dPort, protocol), oriented so the initiator is
// the client, run through a compact TCP state machine, and classified at
// layer 7 (HTTP, TLS, P2P) from the first payload bytes — the same signals
// Tstat uses for the paper's ground truth.
//
// The table is a swiss-style open-addressing map (see internal/swiss): one
// control byte per slot probed in 8-slot groups, over a dense uint32 slot
// array indexing a flow slab. Buckets hold no pointers, so the GC never
// scans them; flow structs are recycled in place. Live flows are threaded
// through an intrusive least-recently-touched list, so idle expiry visits
// only the flows it expires (plus one) instead of scanning the whole table,
// and every flush emits records in a deterministic order.
package flows

import (
	"bytes"
	"fmt"
	"math/rand/v2"
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

// noIdx is the nil slab index / list link.
const noIdx = ^uint32(0)

// flow is the mutable in-table state. Slots are recycled through the
// free list after emit, so references across statements use uint32 slab
// indices, never *flow.
type flow struct {
	rec  Record
	hash uint64 // cached hashKey(seed, rec.Key)
	// lastSeen is the table clock (monotone max of packet times) at the
	// flow's last packet. Expiry compares against it rather than rec.End,
	// so the recency list stays exactly ordered — and the early-stop sweep
	// exact — even when capture timestamps jitter backwards.
	lastSeen time.Duration
	// prev/next thread the intrusive recency list (least recently touched
	// at the head); noIdx terminates.
	prev, next uint32
	// c2sPrefix and s2cPrefix hold the first payload bytes of each
	// direction, but only while something can still read them: c2s until
	// classified, s2c while the flow can still turn out to be TLS and
	// inspected is unset.
	c2sPrefix []byte
	s2cPrefix []byte
	// classified: L7 and the name it carries (HTTPHost, SNI) are final.
	classified bool
	// inspected: the certificate inspection is final — a certificate was
	// read, or the server stream can no longer carry one.
	inspected bool
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

// keyIndex is the bucket array of the swiss table: one control word per
// 8-slot group plus the dense uint32 slot array. Keys live in the flow
// slab (Record.Key), so this structure is entirely pointer-free.
type keyIndex struct {
	ctrl   []uint64
	slots  []uint32
	gmask  uint64 // len(ctrl) - 1
	used   int    // full slots
	tombs  int    // deleted slots
	growAt int    // rehash when used+tombs reaches this (7/8 load)
}

func (ix *keyIndex) init(groups int) {
	ix.ctrl = make([]uint64, groups)
	for i := range ix.ctrl {
		ix.ctrl[i] = swiss.EmptyGroup
	}
	ix.slots = make([]uint32, groups*swiss.GroupSize)
	ix.gmask = uint64(groups - 1)
	ix.used, ix.tombs = 0, 0
	ix.growAt = groups * swiss.GroupSize * 7 / 8
}

// insert places slot under h. The caller guarantees the key is absent and
// capacity is available. The first free lane along the probe sequence is
// correct: every earlier group was full, so lookups cannot stop short of it.
func (ix *keyIndex) insert(h uint64, slot uint32) {
	g := swiss.H1(h) & ix.gmask
	for step := uint64(1); ; step++ {
		w := ix.ctrl[g]
		if m := swiss.MatchFree(w); m != 0 {
			lane := swiss.FirstLane(m)
			if swiss.CtrlAt(w, lane) == swiss.CtrlDeleted {
				ix.tombs--
			}
			ix.ctrl[g] = swiss.WithCtrl(w, lane, swiss.H2(h))
			ix.slots[g*swiss.GroupSize+uint64(lane)] = slot
			ix.used++
			return
		}
		g = (g + step) & ix.gmask
	}
}

// slabChunkBits sizes the flow-slab chunks: 256 flows (~48 KB) per chunk.
// Chunks are allocated once and never copied, so slab growth neither moves
// flow structs nor pays write barriers over their pointer fields the way a
// doubling []flow append would.
const (
	slabChunkBits = 8
	slabChunkLen  = 1 << slabChunkBits
	slabChunkMask = slabChunkLen - 1
)

// Table reconstructs flows. Not safe for concurrent use.
type Table struct {
	cfg  Config
	idx  keyIndex
	seed uint64
	// slab backs every flow struct in fixed-size chunks; the index and the
	// recency list address it by uint32 slot, so growth never invalidates
	// references.
	slab    [][]flow
	slabLen uint32
	// free recycles finished flow slots (with their prefix buffer
	// capacity), so a steady flow arrival/departure rate creates no
	// garbage. Records escape by value at emit time, never by reference.
	free       []uint32
	head, tail uint32 // recency list: least recently touched at head
	stats      TableStats
	sweep      time.Duration
	// clock is the maximum packet time observed: flows are stamped with it
	// (flow.lastSeen) on every touch, keeping the recency list ordered by
	// a monotone quantity even on captures with timestamp jitter.
	clock  time.Duration
	frozen []Record // records kept when OnRecord is nil
	// names interns the HTTP Host, SNI and certificate names; nameBuf is
	// the scratch a name is lowercased or decoded into before interning.
	names   *dnswire.Interner
	nameBuf []byte
	// sweepVisited counts the slots the last FlushIdle examined; tests use
	// it to pin the O(expired) sweep bound.
	sweepVisited int
}

// at returns the flow at slab slot i.
func (t *Table) at(i uint32) *flow {
	return &t.slab[i>>slabChunkBits][i&slabChunkMask]
}

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
	seed := cfg.Seed
	for seed == 0 {
		seed = rand.Uint64()
	}
	t := &Table{cfg: cfg, seed: seed, head: noIdx, tail: noIdx, names: dnswire.NewInterner(0)}
	t.idx.init(16)
	return t
}

// Stats returns the accumulated counters.
func (t *Table) Stats() TableStats { return t.stats }

// Active returns the number of in-flight flows.
func (t *Table) Active() int { return t.idx.used }

// find returns the slab slot of key, or noIdx. Only the canonical stored
// orientation matches; use findEither for unoriented packets.
func (t *Table) find(h uint64, key Key) uint32 {
	ix := &t.idx
	h2 := swiss.H2(h)
	g := swiss.H1(h) & ix.gmask
	for step := uint64(1); ; step++ {
		w := ix.ctrl[g]
		for m := swiss.MatchH2(w, h2); m != 0; m &= m - 1 {
			s := ix.slots[g*swiss.GroupSize+uint64(swiss.FirstLane(m))]
			if t.at(s).rec.Key == key {
				return s
			}
		}
		if swiss.MatchEmpty(w) != 0 {
			return noIdx
		}
		g = (g + step) & ix.gmask
	}
}

// findEither resolves a packet's forward key against the table in one
// probe: the hash is orientation-symmetric, so candidates are compared
// against both the key and its reverse. It returns the slot and whether
// the packet travels c2s under the stored orientation ((noIdx, true) on a
// miss).
func (t *Table) findEither(h uint64, key, rev Key) (uint32, bool) {
	ix := &t.idx
	h2 := swiss.H2(h)
	g := swiss.H1(h) & ix.gmask
	for step := uint64(1); ; step++ {
		w := ix.ctrl[g]
		for m := swiss.MatchH2(w, h2); m != 0; m &= m - 1 {
			s := ix.slots[g*swiss.GroupSize+uint64(swiss.FirstLane(m))]
			if k := &t.at(s).rec.Key; *k == key {
				return s, true
			} else if *k == rev {
				return s, false
			}
		}
		if swiss.MatchEmpty(w) != 0 {
			return noIdx, true
		}
		g = (g + step) & ix.gmask
	}
}

// removeKey erases key (hashed h) from the index. When the key's group
// still has an empty lane, no probe sequence can rely on stepping past the
// erased slot, so it reverts to empty instead of leaving a tombstone.
func (t *Table) removeKey(h uint64, key Key) {
	ix := &t.idx
	h2 := swiss.H2(h)
	g := swiss.H1(h) & ix.gmask
	for step := uint64(1); ; step++ {
		w := ix.ctrl[g]
		for m := swiss.MatchH2(w, h2); m != 0; m &= m - 1 {
			lane := swiss.FirstLane(m)
			if s := ix.slots[g*swiss.GroupSize+uint64(lane)]; t.at(s).rec.Key == key {
				if swiss.MatchEmpty(w) != 0 {
					ix.ctrl[g] = swiss.WithCtrl(w, lane, swiss.CtrlEmpty)
				} else {
					ix.ctrl[g] = swiss.WithCtrl(w, lane, swiss.CtrlDeleted)
					ix.tombs++
				}
				ix.used--
				return
			}
		}
		if swiss.MatchEmpty(w) != 0 {
			return // absent; callers only remove present keys
		}
		g = (g + step) & ix.gmask
	}
}

// rehash doubles the group count when the table is genuinely full, or
// rebuilds at the same size to purge tombstones after heavy churn. Hashes
// are cached per flow, so no key is re-hashed.
func (t *Table) rehash() {
	ix := &t.idx
	groups := len(ix.ctrl)
	if ix.used >= ix.growAt/2 {
		groups *= 2
	}
	oldCtrl, oldSlots := ix.ctrl, ix.slots
	ix.init(groups)
	for g, w := range oldCtrl {
		for lane := 0; lane < swiss.GroupSize; lane++ {
			if swiss.IsFull(swiss.CtrlAt(w, lane)) {
				s := oldSlots[g*swiss.GroupSize+lane]
				ix.insert(t.at(s).hash, s)
			}
		}
	}
}

// insertKey adds key (hashed h) → slot, growing first when needed.
func (t *Table) insertKey(h uint64, slot uint32) {
	if t.idx.used+t.idx.tombs >= t.idx.growAt {
		t.rehash()
	}
	t.idx.insert(h, slot)
}

// --- intrusive recency list ---

// listPushBack appends slot i as the most recently touched flow.
func (t *Table) listPushBack(i uint32) {
	f := t.at(i)
	f.prev, f.next = t.tail, noIdx
	if t.tail != noIdx {
		t.at(t.tail).next = i
	} else {
		t.head = i
	}
	t.tail = i
}

// listRemove unlinks slot i.
func (t *Table) listRemove(i uint32) {
	f := t.at(i)
	if f.prev != noIdx {
		t.at(f.prev).next = f.next
	} else {
		t.head = f.next
	}
	if f.next != noIdx {
		t.at(f.next).prev = f.prev
	} else {
		t.tail = f.prev
	}
	f.prev, f.next = noIdx, noIdx
}

// touch moves slot i to the tail (most recently active).
func (t *Table) touch(i uint32) {
	if t.tail == i {
		return
	}
	t.listRemove(i)
	t.listPushBack(i)
}

func (t *Table) isClientAddr(a netip.Addr) bool { return containsAddr(t.cfg.ClientNets, a) }

func containsAddr(nets []netip.Prefix, a netip.Addr) bool {
	for _, p := range nets {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// NewFlowFunc is invoked by Add when a flow is first seen; the paper's
// pre-flow tagging hook (label available before any payload byte). The
// handle stays valid until OnRecord delivers the flow's record.
type NewFlowFunc func(key Key, at time.Duration, sawSYN bool, h Handle)

// Add processes one decoded packet at the given trace offset. onNew, when
// non-nil, fires for the first packet of every flow.
//
// Orientation is fused with the table probe: the hash is
// orientation-symmetric, so one probe resolves the packet whichever
// direction it travels (the former design probed once in orient and again
// in the add path). For a new flow a pure SYN marks the sender as the
// client, then the configured client networks, then first-sender.
func (t *Table) Add(d *layers.Decoded, at time.Duration, onNew NewFlowFunc) {
	if !d.HasTCP && !d.HasUDP {
		return
	}
	key := Key{
		ClientIP: d.SrcIP, ServerIP: d.DstIP,
		ClientPort: d.SrcPort, ServerPort: d.DstPort,
		Proto: d.Proto,
	}
	h := hashKey(t.seed, key)
	slot, c2s := t.findEither(h, key, key.Reverse())
	if slot == noIdx &&
		!(d.HasTCP && d.TCPFlags.Has(layers.TCPSyn) && !d.TCPFlags.Has(layers.TCPAck)) &&
		len(t.cfg.ClientNets) > 0 &&
		t.isClientAddr(d.DstIP) && !t.isClientAddr(d.SrcIP) {
		key, c2s = key.Reverse(), false
	}
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
	if at > t.clock {
		t.clock = at
	}
	if slot == noIdx {
		slot = t.newFlow()
		f := t.at(slot)
		f.rec = Record{Key: key, Start: at, End: at}
		f.hash = h
		if hasTCP && flags.Has(layers.TCPSyn) && !flags.Has(layers.TCPAck) {
			f.rec.SawSYN = true
			f.rec.State = StateSynSent
		} else if hasTCP {
			f.rec.State = StateEstablished // midstream pickup
		}
		t.insertKey(h, slot)
		t.listPushBack(slot)
		t.stats.FlowsCreated++
		if onNew != nil {
			onNew(key, at, f.rec.SawSYN, Handle(slot))
		}
	} else {
		t.touch(slot)
	}
	f := t.at(slot)
	f.rec.End = at
	f.lastSeen = t.clock
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

// newFlow takes a flow slot from the free list, or carves one from the
// chunked slab. The caller overwrites rec; prefix buffers keep their
// capacity.
func (t *Table) newFlow() uint32 {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		return i
	}
	i := t.slabLen
	if i>>slabChunkBits == uint32(len(t.slab)) {
		t.slab = append(t.slab, make([]flow, slabChunkLen))
	}
	t.slabLen++
	return i
}

// recycle resets a finished flow slot and returns it to the free list. The
// record escaped by value in emit; prefix bytes are never referenced by it.
func (t *Table) recycle(i uint32) {
	f := t.at(i)
	f.rec = Record{}
	f.hash = 0
	f.lastSeen = 0
	f.c2sPrefix = f.c2sPrefix[:0]
	f.s2cPrefix = f.s2cPrefix[:0]
	f.classified = false
	f.inspected = false
	t.free = append(t.free, i)
}

// finish emits a record and removes the flow (close transitions).
func (t *Table) finish(i uint32) {
	f := t.at(i)
	t.classifyFinal(f)
	t.stats.FlowsClosed++
	t.removeKey(f.hash, f.rec.Key)
	t.listRemove(i)
	t.emit(f.rec, Handle(i))
	t.recycle(i)
}

// expire emits a record and removes the flow (idle expiry).
func (t *Table) expire(i uint32) {
	f := t.at(i)
	t.classifyFinal(f)
	t.stats.FlowsExpired++
	t.removeKey(f.hash, f.rec.Key)
	t.listRemove(i)
	t.emit(f.rec, Handle(i))
	t.recycle(i)
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
// of now. The recency list is ordered by flow.lastSeen — a monotone table
// clock, not the raw (possibly jittering) packet timestamp — so the sweep
// walks from the least recently touched flow and stops at the first
// active one: O(expired), not O(active), exact for any input ordering,
// and the emit order (idle-first) is deterministic for a given packet
// sequence. With monotone trace time lastSeen equals rec.End and the
// expired set matches the historical full scan exactly.
func (t *Table) FlushIdle(now time.Duration) {
	visited := 0
	for t.head != noIdx {
		visited++
		i := t.head
		if now-t.at(i).lastSeen < t.cfg.IdleTimeout {
			break
		}
		t.expire(i)
	}
	t.sweepVisited = visited
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

// Records returns flows finished while no OnRecord callback was set.
func (t *Table) Records() []Record { return t.frozen }
