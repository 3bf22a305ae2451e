// Package flowdb stores the labeled flows DN-Hunter emits — the "Flow
// Database" of the paper's architecture (Fig. 1) — and exposes the query
// primitives the off-line analyzer needs: by FQDN, by second-level domain,
// by server address, and by server port (Algorithms 2–4).
package flowdb

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/flows"
	"repro/internal/stats"
)

// LabeledFlow is one flow with the FQDN label the tagger attached.
type LabeledFlow struct {
	flows.Record
	// Label is the FQDN from the resolver; empty when the lookup missed.
	Label string
	// SLD is the second-level domain of Label (cached at insert).
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

// chunkLen is the number of records per storage chunk. 1024 records of
// LabeledFlow fill whole 8 KiB pages (1024 × 256 B = 32 pages), so a chunk
// wastes nothing to size-class rounding; TestChunkFillsPages pins that.
const chunkLen = 1024

// DB is an append-only labeled flow store with secondary indexes.
//
// Records live in a log of fixed-size chunks: every chunk is full except
// the last, and no chunk is ever regrown, moved or copied. Add is one
// store into the last chunk (plus one chunk allocation every chunkLen
// flows), and a pointer to a record stays valid until Reset.
// The indexes are built lazily: Add does no map work on the capture hot
// path, and the first query extends the indexes over whatever arrived
// since the last one.
//
// Add and Merge are not safe for concurrent use with anything. Queries
// are safe to issue concurrently with each other once writing has
// stopped — the catch-up index build they trigger is serialized by an
// internal lock — but never concurrently with Add/Merge.
type DB struct {
	// chunks holds records [c*chunkLen, (c+1)*chunkLen) in chunks[c]. After
	// Reset it may hold more chunks than n needs; those are all zero.
	chunks []*[chunkLen]LabeledFlow
	// n is the record count.
	n int

	// mu serializes the lazy index catch-up, so concurrent queries on a
	// finished DB never race on the map builds.
	mu sync.Mutex
	// indexed is the number of records the indexes cover; index() catches
	// the maps up before any of them is read.
	indexed  int
	byFQDN   map[string][]int
	bySLD    map[string][]int
	byServer map[netip.Addr][]int
	byPort   map[uint16][]int
}

// New creates an empty database.
func New() *DB {
	return &DB{}
}

// Add appends one labeled flow. Index maintenance is deferred to the next
// query.
func (db *DB) Add(f LabeledFlow) {
	if f.Labeled && f.SLD == "" {
		f.SLD = stats.SLD(f.Label)
	}
	db.tail()[0] = f
	db.n++
}

// tail returns the unfilled rest of the last chunk, first adding a chunk
// when the last one is full.
func (db *DB) tail() []LabeledFlow {
	c := db.n / chunkLen
	if c == len(db.chunks) {
		db.chunks = append(db.chunks, new([chunkLen]LabeledFlow))
	}
	return db.chunks[c][db.n%chunkLen:]
}

// filled returns the number of chunks holding records.
func (db *DB) filled() int { return (db.n + chunkLen - 1) / chunkLen }

// chunk returns the filled part of chunk c < db.filled().
func (db *DB) chunk(c int) []LabeledFlow {
	return db.chunks[c][:min(chunkLen, db.n-c*chunkLen)]
}

// index catches the secondary indexes up with the record log.
func (db *DB) index() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.indexed == db.n {
		return
	}
	if db.byFQDN == nil {
		db.byFQDN = make(map[string][]int)
		db.bySLD = make(map[string][]int)
		db.byServer = make(map[netip.Addr][]int)
		db.byPort = make(map[uint16][]int)
	}
	for idx := db.indexed; idx < db.n; idx++ {
		f := db.At(idx)
		if f.Labeled {
			db.byFQDN[f.Label] = append(db.byFQDN[f.Label], idx)
			db.bySLD[f.SLD] = append(db.bySLD[f.SLD], idx)
		}
		db.byServer[f.Key.ServerIP] = append(db.byServer[f.Key.ServerIP], idx)
		db.byPort[f.Key.ServerPort] = append(db.byPort[f.Key.ServerPort], idx)
	}
	db.indexed = db.n
}

// Merge appends every flow of the others into db, copying each record
// once, chunk by chunk. The sharded engine combines per-shard databases
// with it at end of run; record order follows the argument order, so
// merging shards 0..N-1 is deterministic for a fixed shard count.
func (db *DB) Merge(others ...*DB) {
	for _, o := range others {
		n := o.n // read once: merging a DB into itself appends one copy
		for lo := 0; lo < n; lo += chunkLen {
			src := o.chunks[lo/chunkLen][:min(chunkLen, n-lo)]
			for len(src) > 0 {
				k := copy(db.tail(), src)
				db.n += k
				src = src[k:]
			}
		}
	}
}

// Reset empties the database for reuse. It keeps its chunks, so a
// steady-state consumer (the windowed store rotating partitions) stops
// allocating once its high-water mark is reached, but zeroes every record
// they held, so the old flows' strings become garbage now rather than
// when a later window overwrites them. The lazy indexes are dropped
// outright — rebuilding them on the next query is cheaper than emptying
// four maps, and a reused window DB is usually serialized, not queried.
// Not safe for concurrent use, like Add.
func (db *DB) Reset() {
	for c := range db.filled() {
		clear(db.chunk(c))
	}
	db.n = 0
	db.indexed = 0
	db.byFQDN = nil
	db.bySLD = nil
	db.byServer = nil
	db.byPort = nil
}

// Len returns the number of flows stored.
func (db *DB) Len() int { return db.n }

// All returns a copy of every flow, in insertion order. It allocates and
// copies the whole database on each call; prefer Len and At, which read
// the records in place.
func (db *DB) All() []LabeledFlow {
	out := make([]LabeledFlow, 0, db.n)
	for c := range db.filled() {
		out = append(out, db.chunk(c)...)
	}
	return out
}

// At returns the i-th flow, 0 <= i < Len(). The pointer stays valid, and
// the record unchanged, for as long as the DB is not Reset.
func (db *DB) At(i int) *LabeledFlow {
	if uint(i) >= uint(db.n) {
		panic("flowdb: record index out of range")
	}
	return &db.chunks[i/chunkLen][i%chunkLen]
}

func (db *DB) gather(idxs []int) []*LabeledFlow {
	out := make([]*LabeledFlow, len(idxs))
	for i, idx := range idxs {
		out[i] = db.At(idx)
	}
	return out
}

// BySLD returns flows whose label belongs to the given second-level domain
// (Algorithm 2's queryByDomainName on the organization).
func (db *DB) BySLD(sld string) []*LabeledFlow { db.index(); return db.gather(db.bySLD[sld]) }

// ByServer returns flows to the given server address (Algorithm 3's query).
func (db *DB) ByServer(addr netip.Addr) []*LabeledFlow {
	db.index()
	return db.gather(db.byServer[addr])
}

// ByPort returns flows to the given server port (Algorithm 4's query).
func (db *DB) ByPort(port uint16) []*LabeledFlow { db.index(); return db.gather(db.byPort[port]) }

// FQDNsOfSLD returns the distinct FQDNs labeled under sld, sorted.
func (db *DB) FQDNsOfSLD(sld string) []string {
	db.index()
	seen := make(map[string]struct{})
	for _, idx := range db.bySLD[sld] {
		seen[db.At(idx).Label] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// ServersOfFQDN returns the distinct server addresses observed serving
// fqdn, sorted.
func (db *DB) ServersOfFQDN(fqdn string) []netip.Addr {
	db.index()
	return db.distinctServers(db.byFQDN[fqdn])
}

func (db *DB) distinctServers(idxs []int) []netip.Addr {
	seen := make(map[netip.Addr]struct{})
	for _, idx := range idxs {
		seen[db.At(idx).Key.ServerIP] = struct{}{}
	}
	out := make([]netip.Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Servers returns every distinct server address in the database, sorted.
func (db *DB) Servers() []netip.Addr {
	db.index()
	out := make([]netip.Addr, 0, len(db.byServer))
	for a := range db.byServer {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// FQDNs returns every distinct label in the database, sorted.
func (db *DB) FQDNs() []string {
	db.index()
	out := make([]string, 0, len(db.byFQDN))
	for f := range db.byFQDN {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
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
	for c := range db.filled() {
		recs := db.chunk(c)
		for i := range recs {
			f := &recs[i]
			if f.Start < warmup {
				continue
			}
			cov.Total[f.L7]++
			if f.Labeled {
				cov.Labeled[f.L7]++
			}
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
