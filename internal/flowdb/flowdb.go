// Package flowdb stores the labeled flows DN-Hunter emits — the "Flow
// Database" of the paper's architecture (Fig. 1). It is a row log: the
// off-line analyzer (Algorithms 2–4) answers its queries with one scan
// each.
package flowdb

import (
	"time"

	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/names"
)

// LabeledFlow is one flow with the FQDN label the tagger attached.
type LabeledFlow struct {
	flows.Record
	// Label is the FQDN from the resolver; empty when the lookup missed.
	Label string
	// SLD is the second-level domain of Label when Labeled, else "". A DB
	// derives it from Label; Add ignores the caller's value.
	SLD string
	// Labeled reports whether the tagger hit the resolver cache.
	Labeled bool
	// PreFlow reports whether the label was available at the first packet
	// (SYN) — the paper's identify-before-the-flow-begins property.
	PreFlow bool
	// DNSDelay is flow start minus the labeling DNS response time: the
	// "first flow delay" when this is the first flow after the response.
	DNSDelay time.Duration
	// FirstAfterDNS marks the first flow following its DNS response
	// (Fig. 12 measures exactly these).
	FirstAfterDNS bool
	// Truth is the ground-truth FQDN carried by synthetic traces in a
	// sidecar; empty for real captures. Used only for scoring, never by
	// the pipeline.
	Truth string
	// Vantage names the packet source that observed the flow; empty for
	// single-source runs. Multi-vantage runs (Engine.RunSources) stamp it
	// so a merged database still partitions per vantage point.
	Vantage string
}

// row is a flow as a DB stores it: fixed-size and pointer-free, so the GC
// never scans a chunk. Strings are IDs into the DB's name table; an IPv4
// address is stored inline and an IPv6 one as an index into the DB's IPv6
// log (putAddr), its family a flag; the five booleans and the two family
// bits share one flags byte. A row has no SLD: that is a property of its
// label's ID (names.Table.DeriveSLD). TestRowLayout pins the size and the
// absence of pointers.
type row struct {
	client, server         uint32 // address words (putAddr)
	start, end, dnsDelay   int64
	pktsC2S, pktsS2C       uint64
	bytesC2S, bytesS2C     uint64
	label, truth           uint32
	httpHost, sni          uint32
	certName, vantage      uint32
	clientPort, serverPort uint16
	proto                  layers.IPProtocol
	l7                     flows.L7Proto
	state                  flows.TCPState
	flags                  uint8
}

// Row flags.
const (
	flagSawSYN uint8 = 1 << iota
	flagHasCert
	flagLabeled
	flagPreFlow
	flagFirstAfterDNS
	flagClient4 // client is an inline IPv4 address
	flagServer4 // server is an inline IPv4 address
)

// chunkLen is the number of rows per storage chunk. 1024 rows of 96 B fill
// whole 8 KiB pages (12 of them), so a chunk wastes nothing to size-class
// rounding; TestChunkFillsPages pins that.
const chunkLen = 1024

// DB is an append-only labeled flow store.
//
// Flows live in a log of fixed-size chunks of compact rows: every chunk is
// full except the last, and no chunk is ever regrown, moved or copied. Add
// encodes one row into the last chunk (plus one chunk allocation every
// chunkLen flows), filing its strings in the DB's name table and its IPv6
// addresses in the DB's IPv6 log; reads decode rows back into LabeledFlow
// values (Load, At, All). A query is a scan: the DB keeps no index.
//
// Add, Merge and Reset are not safe for concurrent use with anything.
// Reads (Len, Load, At, All, Coverage, WriteCSV) write nothing, so once
// writing has stopped any number of goroutines may read concurrently,
// with no internal lock.
type DB struct {
	// chunks holds rows [c*chunkLen, (c+1)*chunkLen) in chunks[c]. After
	// Reset it may hold more chunks than n needs; rows past n are stale.
	chunks []*[chunkLen]row
	// n is the row count.
	n     int
	names names.Table
	// v6 is the IPv6 log: the addresses of the rows' IPv6 address words.
	v6 []addr6
	// remapIDs is Merge's scratch: the ID each name of a merged DB takes.
	remapIDs []uint32
}

// New creates an empty database.
func New() *DB {
	db := &DB{}
	db.names.Init()
	return db
}

// Add appends one labeled flow. Its SLD is derived from Label when the flow
// is Labeled (and is "" otherwise), whatever f.SLD holds.
func (db *DB) Add(f LabeledFlow) {
	db.encode(&db.tail()[0], &f)
	db.n++
}

// idOr is n.ID(s), given that known is filed as knownID.
func idOr(n *names.Table, s, known string, knownID uint32) uint32 {
	if s == known {
		return knownID
	}
	return n.ID(s)
}

// encode stores f in r, filing its strings in the name table and its IPv6
// addresses in the IPv6 log.
func (db *DB) encode(r *row, f *LabeledFlow) {
	n := &db.names
	var fl uint8
	var is4 bool
	if r.client, is4 = db.putAddr(f.Key.ClientIP); is4 {
		fl |= flagClient4
	}
	if r.server, is4 = db.putAddr(f.Key.ServerIP); is4 {
		fl |= flagServer4
	}
	r.start, r.end, r.dnsDelay = int64(f.Start), int64(f.End), int64(f.DNSDelay)
	r.pktsC2S, r.pktsS2C = f.PktsC2S, f.PktsS2C
	r.bytesC2S, r.bytesS2C = f.BytesC2S, f.BytesS2C
	// Ground truth, HTTP host and SNI usually repeat the label: filing them
	// then costs a string compare, not a hash and a probe.
	r.label = n.ID(f.Label)
	r.truth = idOr(n, f.Truth, f.Label, r.label)
	r.httpHost = idOr(n, f.HTTPHost, f.Label, r.label)
	r.sni = idOr(n, f.SNI, f.Label, r.label)
	r.certName, r.vantage = n.ID(f.CertName), n.ID(f.Vantage)
	r.clientPort, r.serverPort = f.Key.ClientPort, f.Key.ServerPort
	r.proto, r.l7, r.state = f.Key.Proto, f.L7, f.State
	if f.SawSYN {
		fl |= flagSawSYN
	}
	if f.HasCert {
		fl |= flagHasCert
	}
	if f.Labeled {
		fl |= flagLabeled
		n.DeriveSLD(r.label)
	}
	if f.PreFlow {
		fl |= flagPreFlow
	}
	if f.FirstAfterDNS {
		fl |= flagFirstAfterDNS
	}
	r.flags = fl
}

// Load decodes the i-th flow into f, 0 <= i < Len(), overwriting every
// field (field by field, with no temporary LabeledFlow; FuzzRowRoundTrip
// decodes into a flow with every field set). It allocates nothing, so a
// scan that reuses one LabeledFlow costs no allocation per flow. The
// decoded flow is a copy: later writes to the DB, Reset included, leave it
// unchanged.
func (db *DB) Load(i int, f *LabeledFlow) {
	n := &db.names
	r := db.row(i)
	f.Key = flows.Key{
		ClientIP:   db.getAddr(r.client, r.flags&flagClient4 != 0),
		ServerIP:   db.getAddr(r.server, r.flags&flagServer4 != 0),
		ClientPort: r.clientPort,
		ServerPort: r.serverPort,
		Proto:      r.proto,
	}
	f.Start, f.End, f.DNSDelay = time.Duration(r.start), time.Duration(r.end), time.Duration(r.dnsDelay)
	f.State, f.L7 = r.state, r.l7
	f.PktsC2S, f.PktsS2C = r.pktsC2S, r.pktsS2C
	f.BytesC2S, f.BytesS2C = r.bytesC2S, r.bytesS2C
	f.SawSYN = r.flags&flagSawSYN != 0
	f.HasCert = r.flags&flagHasCert != 0
	f.Labeled = r.flags&flagLabeled != 0
	f.PreFlow = r.flags&flagPreFlow != 0
	f.FirstAfterDNS = r.flags&flagFirstAfterDNS != 0
	f.Label, f.Truth, f.Vantage = n.Str(r.label), n.Str(r.truth), n.Str(r.vantage)
	f.HTTPHost, f.SNI, f.CertName = n.Str(r.httpHost), n.Str(r.sni), n.Str(r.certName)
	f.SLD = ""
	if f.Labeled {
		f.SLD = n.Str(n.SLD(r.label))
	}
}

// tail returns the unfilled rest of the last chunk, first adding a chunk
// when the last one is full.
func (db *DB) tail() []row {
	c := db.n / chunkLen
	if c == len(db.chunks) {
		db.chunks = append(db.chunks, new([chunkLen]row))
	}
	return db.chunks[c][db.n%chunkLen:]
}

// row returns the i-th row, 0 <= i < Len().
func (db *DB) row(i int) *row {
	if uint(i) >= uint(db.n) {
		panic("flowdb: record index out of range")
	}
	return &db.chunks[i/chunkLen][i%chunkLen]
}

// Merge appends every flow of the others into db, in argument order, so
// merging shards 0..N-1 is deterministic for a fixed shard count. Each
// source's names are filed in db's table with one lookup per distinct
// name, and its IPv6 log is appended to db's; its rows are then copied
// chunk by chunk, their IDs rewritten only when the two tables number
// names differently, and their IPv6 log indices only when db's log held
// addresses before.
func (db *DB) Merge(others ...*DB) {
	for _, o := range others {
		// Read once: merging a DB into itself appends one copy.
		n, m := o.n, len(o.v6)
		ids, same := db.names.Remap(&o.names, db.remapIDs)
		db.remapIDs = ids
		base := uint32(len(db.v6))
		db.v6 = append(db.v6, o.v6[:m]...)
		if !same {
			added := db.v6[base:]
			for i := range added {
				added[i].zone = ids[added[i].zone]
			}
		}
		rebase := base != 0 && m != 0
		for lo := 0; lo < n; lo += chunkLen {
			src := o.chunks[lo/chunkLen][:min(chunkLen, n-lo)]
			for len(src) > 0 {
				dst := db.tail()
				k := copy(dst, src)
				if !same || rebase {
					for i := range dst[:k] {
						if !same {
							dst[i].remap(ids)
						}
						if rebase {
							dst[i].rebase(base)
						}
					}
				}
				db.n += k
				src = src[k:]
			}
		}
	}
}

// remap rewrites r's name IDs through ids (names.Table.Remap).
func (r *row) remap(ids []uint32) {
	r.label, r.truth = ids[r.label], ids[r.truth]
	r.httpHost, r.sni = ids[r.httpHost], ids[r.sni]
	r.certName, r.vantage = ids[r.certName], ids[r.vantage]
}

// Reset empties the database for reuse. It keeps its chunks, its IPv6 log
// and the name table's storage, so a steady-state consumer (the windowed
// store rotating partitions) stops allocating once its high-water mark is
// reached. Rows hold no pointers and need no zeroing; emptying the name
// table is what releases the old flows' strings, now rather than when a
// later window overwrites them. Not safe for concurrent use, like Add.
func (db *DB) Reset() {
	db.n = 0
	db.names.Reset()
	db.v6 = db.v6[:0]
}

// Len returns the number of flows stored.
func (db *DB) Len() int { return db.n }

// All returns every flow, decoded, in insertion order. It allocates the
// whole database on each call; prefer Len and Load, which decode one flow
// at a time into storage the caller reuses.
func (db *DB) All() []LabeledFlow {
	out := make([]LabeledFlow, db.n)
	for i := range out {
		db.Load(i, &out[i])
	}
	return out
}

// At returns the i-th flow, 0 <= i < Len(): a decoded copy, which later
// writes to the DB never change. Scans should reuse one LabeledFlow with
// Load instead.
func (db *DB) At(i int) LabeledFlow {
	var f LabeledFlow
	db.Load(i, &f)
	return f
}

// LabelCoverage summarizes the hit ratio per L7 protocol — the measurement
// behind Table 2.
type LabelCoverage struct {
	Total, Labeled map[flows.L7Proto]int
}

// Coverage computes per-protocol labeling coverage for flows starting at or
// after warmup (the paper discards a 5-minute warm-up during which client
// OS caches still hold entries sniffed before the trace began).
func (db *DB) Coverage(warmup time.Duration) LabelCoverage {
	cov := LabelCoverage{
		Total:   make(map[flows.L7Proto]int),
		Labeled: make(map[flows.L7Proto]int),
	}
	for i := range db.n {
		r := db.row(i)
		if time.Duration(r.start) < warmup {
			continue
		}
		cov.Total[r.l7]++
		if r.flags&flagLabeled != 0 {
			cov.Labeled[r.l7]++
		}
	}
	return cov
}

// Ratio returns the labeled fraction for one protocol, or 0 when unseen.
func (c LabelCoverage) Ratio(p flows.L7Proto) float64 {
	if c.Total[p] == 0 {
		return 0
	}
	return float64(c.Labeled[p]) / float64(c.Total[p])
}
