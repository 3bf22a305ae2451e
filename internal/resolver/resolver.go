// Package resolver implements the paper's central data structure (§3.1.1,
// Fig. 2, Algorithm 1): a passive replica of the monitored clients' DNS
// caches. Each sniffed DNS response inserts one FQDN entry into a FIFO
// circular list (the Clist) of fixed size L, and links it from a lookup
// structure keyed by (clientIP, serverIP). Back-references from each entry
// to the map keys pointing at it make eviction O(refs) with no garbage
// collection pass, exactly as the paper describes.
//
// The lookup structure is the paper's footnote-2 hash-map option, with the
// two-level clientIP → serverIP → entry maps flattened into a single
// swiss-style open-addressing table keyed by the combined (client, server)
// address pair: one probe per lookup instead of two chained hash maps, with
// buckets that hold only uint32 indices into a node slab (pointer-free,
// invisible to the GC). The paper's two-level ordered structure (C++
// std::map) lives on in the package tests as the reference model the
// differential tests and fuzzer compare this table against.
package resolver

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"repro/internal/swiss"
)

// Config tunes the resolver.
type Config struct {
	// ClistSize is L, the circular list capacity. The paper dimensions L so
	// the implied caching time covers ~1 hour of responses (§6). Zero means
	// 1<<20 entries.
	ClistSize int
	// History keeps up to this many previous FQDNs per (client, server) key
	// so LookupAll can return all candidate labels (§6 discusses the <4%
	// confusion from last-writer-wins; the multi-label extension resolves
	// it). Zero keeps only the latest (the paper's default behaviour).
	History int
}

// Stats counts resolver activity.
type Stats struct {
	Responses    uint64 // Insert calls
	Addresses    uint64 // serverIP keys inserted
	Replaced     uint64 // keys that pointed to an older entry
	Evictions    uint64 // Clist slots recycled
	EvictedRefs  uint64 // map keys removed by eviction
	Lookups      uint64
	Hits         uint64
	Misses       uint64
	ClientsPeak  int
	EntriesAlive int // entries currently holding at least one ref
}

// Entry is one Clist slot: an FQDN with the time its response was seen and
// the back-references that point at it.
type Entry struct {
	FQDN string
	At   time.Duration
	// Used is set by the flow tagger when the entry labels its first flow;
	// entries never used measure the paper's "useless DNS" (Table 9).
	Used bool
	refs []backref
	// live guards against double recycling.
	live bool
}

type backref struct {
	client, server netip.Addr
}

// pairNode is one flat-table node: the (client, server) key it is filed
// under, the newest entry, and bounded history. Nodes live in a slab
// addressed by the uint32 slots of the swiss index; slots are recycled on
// remove, so cross-statement references use slots, never *pairNode.
type pairNode struct {
	client, server netip.Addr
	hash           uint64
	entry          *Entry
	older          []*Entry
}

// noSlot is the nil slab index.
const noSlot = ^uint32(0)

// pairTable is the flat lookup structure: a swiss index over a pairNode
// slab, keyed by the combined (client, server) address pair.
type pairTable struct {
	idx   swiss.Index
	nodes swiss.Slab[pairNode]
	seed  uint64
	// clients counts live keys per client address; its length is the
	// number of distinct clients tracked. It is touched only when a key is
	// created or destroyed — never on the per-flow lookup path.
	clients map[netip.Addr]uint32
}

func newPairTable() *pairTable {
	t := &pairTable{seed: rand.Uint64(), clients: make(map[netip.Addr]uint32)}
	t.idx.Init()
	return t
}

func (t *pairTable) hash(client, server netip.Addr) uint64 {
	return swiss.HashAddr(swiss.HashAddr(t.seed, client), server)
}

func (t *pairTable) hashOf(slot uint32) uint64 { return t.nodes.At(slot).hash }

// find returns the node slot for (client, server), or noSlot.
func (t *pairTable) find(h uint64, client, server netip.Addr) uint32 {
	for p := t.idx.Probe(h); ; p = p.Next() {
		for m := p.Match(); m != 0; m &= m - 1 {
			s := p.Slot(m)
			if n := t.nodes.At(s); n.client == client && n.server == server {
				return s
			}
		}
		if p.Last() {
			return noSlot
		}
	}
}

// insert creates a node for (client, server) → e and returns its slot.
func (t *pairTable) insert(h uint64, client, server netip.Addr, e *Entry) uint32 {
	slot := t.nodes.Alloc()
	n := t.nodes.At(slot)
	n.client, n.server, n.hash, n.entry = client, server, h, e
	t.idx.Insert(h, slot, t.hashOf)
	t.clients[client]++
	return slot
}

// remove erases the key at slot from the index and recycles the node,
// dropping the client from the clients count when this was its last key.
func (t *pairTable) remove(slot uint32) {
	n := t.nodes.At(slot)
	t.idx.Delete(n.hash, slot)
	if c := t.clients[n.client] - 1; c == 0 {
		delete(t.clients, n.client)
	} else {
		t.clients[n.client] = c
	}
	n.client, n.server, n.hash, n.entry = netip.Addr{}, netip.Addr{}, 0, nil
	n.older = n.older[:0]
	t.nodes.Free(slot)
}

// Resolver is the DNS cache replica. Not safe for concurrent use; shard by
// client address for parallel deployments (the paper suggests odd/even
// fourth-octet sharding).
type Resolver struct {
	cfg  Config
	flat *pairTable
	// clist grows on demand up to cfg.ClistSize and only then behaves as a
	// ring. The FIFO semantics are identical to a preallocated ring — slots
	// fill in index order before any slot is ever recycled — but a lightly
	// loaded resolver never pays for (or makes the GC scan) a million-slot
	// pointer array.
	clist []*Entry
	next  int
	// alive tracks the live Clist entries incrementally (insert ++, evict
	// --), so Stats never rescans the list.
	alive int
	// freeEntry recycles evicted Clist entries (with their refs capacity)
	// so a saturated resolver inserts without allocating. Only used when
	// History == 0: with history enabled, evicted entries can remain
	// referenced from node history lists.
	freeEntry []*Entry
	// Slabs back fresh entries and backrefs in blocks, cutting the filling
	// phase (before the Clist wraps and the free lists take over) from ~2
	// heap objects per DNS response to ~2 per slabSize responses.
	entrySlab []Entry
	refSlab   []backref
	stats     Stats
}

// slabSize is the block size for entry/backref slab allocation.
const slabSize = 256

// New creates a resolver.
func New(cfg Config) *Resolver {
	if cfg.ClistSize <= 0 {
		cfg.ClistSize = 1 << 20
	}
	return &Resolver{cfg: cfg, flat: newPairTable()}
}

// L returns the configured Clist size.
func (r *Resolver) L() int { return r.cfg.ClistSize }

// Stats returns a snapshot of the counters. EntriesAlive is maintained
// incrementally on insert/evict, so this is O(1) — it no longer rescans
// the Clist.
func (r *Resolver) Stats() Stats {
	s := r.stats
	s.EntriesAlive = r.alive
	return s
}

// Clients returns the number of clients currently tracked.
func (r *Resolver) Clients() int { return len(r.flat.clients) }

// Insert records one DNS response: clientIP asked for fqdn and received the
// given server addresses (Algorithm 1, INSERT). Responses with no addresses
// are counted but change nothing.
func (r *Resolver) Insert(clientIP netip.Addr, fqdn string, servers []netip.Addr, at time.Duration) {
	r.stats.Responses++
	if fqdn == "" || len(servers) == 0 {
		return
	}
	entry := r.newEntry(fqdn, at)
	r.reserveRefs(entry, len(servers))
	// Link entry from every (clientIP, server) key (lines 5–21).
	ft := r.flat
	hc := swiss.HashAddr(ft.seed, clientIP) // client half, shared across servers
	for _, serverIP := range servers {
		r.stats.Addresses++
		h := swiss.HashAddr(hc, serverIP)
		if slot := ft.find(h, clientIP, serverIP); slot != noSlot {
			n := ft.nodes.At(slot)
			// Replace the old reference (Algorithm 1, lines 11–15): the old
			// entry loses this back-reference; optionally it is retained as
			// history for LookupAll.
			old := n.entry
			old.removeRef(clientIP, serverIP)
			r.stats.Replaced++
			if r.cfg.History > 0 && old.FQDN != entry.FQDN {
				n.older = append([]*Entry{old}, n.older...)
				if len(n.older) > r.cfg.History {
					n.older = n.older[:r.cfg.History]
				}
			}
			n.entry = entry
		} else {
			ft.insert(h, clientIP, serverIP, entry)
			if len(ft.clients) > r.stats.ClientsPeak {
				r.stats.ClientsPeak = len(ft.clients)
			}
		}
		entry.refs = append(entry.refs, backref{client: clientIP, server: serverIP})
	}
	// Recycle the next Clist slot (lines 22–25). While the list is still
	// below capacity L, slots are appended — index order, exactly the order
	// a preallocated ring would fill them.
	if len(r.clist) < r.cfg.ClistSize {
		r.clist = append(r.clist, entry)
		return
	}
	if old := r.clist[r.next]; old != nil && old.live {
		r.evict(old)
	}
	r.clist[r.next] = entry
	r.next++
	if r.next == len(r.clist) {
		r.next = 0
	}
}

// newEntry takes an entry from the free list, or carves one from the slab.
func (r *Resolver) newEntry(fqdn string, at time.Duration) *Entry {
	r.alive++
	if n := len(r.freeEntry); n > 0 {
		e := r.freeEntry[n-1]
		r.freeEntry = r.freeEntry[:n-1]
		e.FQDN, e.At, e.Used, e.live = fqdn, at, false, true
		return e
	}
	if len(r.entrySlab) == 0 {
		r.entrySlab = make([]Entry, slabSize)
	}
	e := &r.entrySlab[0]
	r.entrySlab = r.entrySlab[1:]
	e.FQDN, e.At, e.live = fqdn, at, true
	return e
}

// reserveRefs gives e backref capacity for n appends, carving fresh
// capacity from the shared slab. An entry's refs are only ever appended
// inside the single Insert call that created it, so slab regions never
// interleave; the capacity limit makes a stray overflow re-allocate rather
// than stomp a neighbor.
func (r *Resolver) reserveRefs(e *Entry, n int) {
	if cap(e.refs) >= n {
		return // recycled entry with enough capacity
	}
	if len(r.refSlab) < n {
		r.refSlab = make([]backref, max(slabSize, n))
	}
	e.refs = r.refSlab[:0:n]
	r.refSlab = r.refSlab[n:]
}

// evict removes every map key still pointing at e.
func (r *Resolver) evict(e *Entry) {
	r.stats.Evictions++
	ft := r.flat
	for _, ref := range e.refs {
		slot := ft.find(ft.hash(ref.client, ref.server), ref.client, ref.server)
		if slot == noSlot {
			continue
		}
		n := ft.nodes.At(slot)
		if n.entry == e {
			// Promote history if any, else drop the key.
			if len(n.older) > 0 {
				n.entry = n.older[0]
				n.older = n.older[1:]
			} else {
				ft.remove(slot)
				r.stats.EvictedRefs++
			}
			continue
		}
		// e may live only in history.
		for i, h := range n.older {
			if h == e {
				n.older = append(n.older[:i], n.older[i+1:]...)
				break
			}
		}
	}
	e.refs = e.refs[:0]
	e.live = false
	r.alive--
	if r.cfg.History == 0 {
		// With history enabled an evicted entry can still be referenced
		// from another node's history list, so it must not be reused; the
		// paper's default (no history) recycles it.
		r.freeEntry = append(r.freeEntry, e)
	} else {
		e.refs = nil
	}
}

// removeRef drops one back-reference from the entry (replacement path).
func (e *Entry) removeRef(client, server netip.Addr) {
	for i, ref := range e.refs {
		if ref.client == client && ref.server == server {
			e.refs = append(e.refs[:i], e.refs[i+1:]...)
			return
		}
	}
}

// Lookup returns the FQDN clientIP most recently resolved to serverIP
// (Algorithm 1, LOOKUP). ok is false on a cache miss.
func (r *Resolver) Lookup(clientIP, serverIP netip.Addr) (fqdn string, ok bool) {
	e, ok := r.LookupEntry(clientIP, serverIP)
	if !ok {
		return "", false
	}
	return e.FQDN, true
}

// LookupEntry is Lookup but returns the whole entry (FQDN plus the time the
// response was observed, used to measure first-flow delay, Fig. 12): a
// single flat-table probe.
func (r *Resolver) LookupEntry(clientIP, serverIP netip.Addr) (*Entry, bool) {
	r.stats.Lookups++
	ft := r.flat
	if slot := ft.find(ft.hash(clientIP, serverIP), clientIP, serverIP); slot != noSlot {
		r.stats.Hits++
		return ft.nodes.At(slot).entry, true
	}
	r.stats.Misses++
	return nil, false
}

// LookupAll returns every FQDN currently associated with (clientIP,
// serverIP), newest first. With Config.History == 0 this is at most one
// name. The multi-label extension discussed in §6.
func (r *Resolver) LookupAll(clientIP, serverIP netip.Addr) []string {
	ft := r.flat
	slot := ft.find(ft.hash(clientIP, serverIP), clientIP, serverIP)
	if slot == noSlot {
		return nil
	}
	n := ft.nodes.At(slot)
	out := []string{n.entry.FQDN}
	for _, h := range n.older {
		out = append(out, h.FQDN)
	}
	return out
}

// Add accumulates o into s (per-shard merge). Counters sum; ClientsPeak
// sums too, because a sharded deployment partitions clients across shards,
// so the sum of per-shard peaks is the aggregate client population (exact
// while no entries are evicted, an upper bound otherwise).
func (s *Stats) Add(o Stats) {
	s.Responses += o.Responses
	s.Addresses += o.Addresses
	s.Replaced += o.Replaced
	s.Evictions += o.Evictions
	s.EvictedRefs += o.EvictedRefs
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.ClientsPeak += o.ClientsPeak
	s.EntriesAlive += o.EntriesAlive
}

// HitRatio returns Hits/Lookups, or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// String summarizes the stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("responses=%d addrs=%d replaced=%d evictions=%d lookups=%d hit=%.1f%%",
		s.Responses, s.Addresses, s.Replaced, s.Evictions, s.Lookups, 100*s.HitRatio())
}
