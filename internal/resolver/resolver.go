// Package resolver implements the paper's central data structure (§3.1.1,
// Fig. 2, Algorithm 1): a passive replica of the monitored clients' DNS
// caches. Each sniffed DNS response inserts one FQDN entry into a FIFO
// circular list (the Clist) of fixed size L, and links it from a lookup
// structure keyed by (clientIP, serverIP). Back-references from each entry
// to the map keys pointing at it make eviction O(refs) with no garbage
// collection pass, exactly as the paper describes; here they are prev/next
// links threaded through the key nodes themselves, so eviction walks an
// entry's nodes by slot and never probes for a key.
//
// An entry whose every key was re-pointed by a newer response (lines 11–15)
// can never be returned by LOOKUP again. It leaves the entry slab at once;
// its Clist slot keeps its FIFO place as a tombstone, so the eviction
// sequence is the paper's, and a superseded slot costs the 4 bytes of its
// ring cell instead of a whole entry.
//
// The lookup structure is the paper's footnote-2 hash-map option, with the
// two-level clientIP → serverIP → entry maps flattened into a single
// swiss-style open-addressing table keyed by the combined (client, server)
// address pair: one probe per lookup instead of two chained hash maps. Key
// nodes and Clist entries live in slabs and name each other by uint32 slot;
// the nodes and the Clist ring hold no pointer, so the GC never scans them.
// The paper's two-level ordered structure (C++ std::map) lives on in the
// package tests as the reference model the differential tests and fuzzer
// compare this table against.
package resolver

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"repro/internal/names"
	"repro/internal/swiss"
)

// Config tunes the resolver.
type Config struct {
	// ClistSize is L, the circular list capacity. The paper dimensions L so
	// the implied caching time covers ~1 hour of responses (§6). Zero means
	// 1<<20 entries.
	ClistSize int
}

// Stats counts resolver activity.
type Stats struct {
	Responses    uint64 // Insert calls
	Addresses    uint64 // serverIP keys inserted
	Replaced     uint64 // keys that pointed to an older entry
	Evictions    uint64 // Clist slots recycled, tombstones included
	EvictedRefs  uint64 // map keys removed by eviction
	Lookups      uint64
	Hits         uint64
	Misses       uint64
	EntriesAlive int // filled Clist slots, tombstones of superseded entries included
}

// Entry is one Clist entry: an FQDN with the time its response was seen.
// Entries live in a slab and a slot is reused once no node names its entry,
// so an *Entry is valid only until the next Insert.
type Entry struct {
	At time.Duration
	// FQDN is the ID of the entry's name in the resolver's name table, 0
	// once the entry is freed. A sweep of the table keeps it (holdNames).
	FQDN uint32
	// refs is the first node of the entry's back-reference list: the nodes
	// whose current entry it became by Insert, linked in insertion order
	// through pairNode.prev/next. noSlot when the list is empty.
	refs uint32
	// names counts, below usedBit, what names the entry: its Clist slot
	// until eviction, and every node whose current entry it is. The entry's
	// slot is recycled when the count drops to zero, or to one while the
	// entry still holds its Clist slot: then only the ring names it, and the
	// slot becomes a tombstone. usedBit is the Used flag.
	names uint32
	// pos is the entry's Clist index: noSlot until the entry is filed and
	// after its eviction.
	pos uint32
}

// usedBit is the bit of Entry.names that holds the Used flag.
const usedBit = 1 << 31

// Used reports whether the entry has labeled a flow (SetUsed); entries
// never used measure the paper's "useless DNS" (Table 9).
func (e *Entry) Used() bool { return e.names&usedBit != 0 }

// SetUsed marks the entry used: the flow tagger calls it when the entry
// labels its first flow.
func (e *Entry) SetUsed() { e.names |= usedBit }

// count returns the number of names the entry has.
func (e *Entry) count() uint32 { return e.names &^ usedBit }

// pairNode is one flat-table node: its (client, server) key as a
// swiss.Pairs word and family bits — two IPv4 addresses inline, any other
// pair in a side cell of pairTable.pairs — the slot of its current entry
// and its links on that entry's back-reference list. It caches no hash:
// hashOf recomputes it from the key, which the probe that found the node
// has read already. Nodes live in a slab addressed by the uint32 slots of
// the swiss index and hold no pointer, so the GC never scans them; slots are
// recycled on remove, so cross-statement references use slots, never
// *pairNode.
type pairNode struct {
	pair       uint64 // swiss.Pairs word of the key
	entry      uint32
	prev, next uint32 // back-reference links
	fam        uint8  // swiss family bits of the key
}

// noSlot is the nil slab index.
const noSlot = ^uint32(0)

// pairTable is the flat lookup structure: a swiss index over a pairNode
// slab, keyed by the combined (client, server) address pair, and the side
// cells of its non-IPv4 keys.
type pairTable struct {
	idx   swiss.Index
	nodes swiss.Slab[pairNode]
	pairs swiss.Pairs
	seed  uint64
}

func newPairTable() *pairTable {
	t := &pairTable{seed: rand.Uint64()}
	t.idx.Init()
	return t
}

// key fills k with the pair key of (client, server) and returns its hash.
// It writes through a pointer because returning the key by value costs a
// copy on the lookup path.
func (t *pairTable) key(k *swiss.PairKey, client, server netip.Addr) uint64 {
	k.Set(client, server)
	return k.Hash(t.seed)
}

func (t *pairTable) hashOf(slot uint32) uint64 {
	n := t.nodes.At(slot)
	return t.pairs.Hash(t.seed, n.pair, n.fam)
}

// addrs returns the key of the node at slot.
func (t *pairTable) addrs(slot uint32) (client, server netip.Addr) {
	n := t.nodes.At(slot)
	var k swiss.PairKey
	t.pairs.Load(&k, n.pair, n.fam)
	return k.Addrs()
}

// find returns the node slot for k, or noSlot.
func (t *pairTable) find(k *swiss.PairKey, h uint64) uint32 {
	for p := t.idx.Probe(h); ; p = p.Next() {
		for m := p.Match(); m != 0; m &= m - 1 {
			s := p.Slot(m)
			if n := t.nodes.At(s); t.pairs.Equal(n.pair, n.fam, k) {
				return s
			}
		}
		if p.Last() {
			return noSlot
		}
	}
}

// insert creates an unlinked node for k → entry and returns its slot.
func (t *pairTable) insert(k *swiss.PairKey, h uint64, entry uint32) uint32 {
	slot := t.nodes.Alloc()
	*t.nodes.At(slot) = pairNode{pair: t.pairs.Put(k), fam: k.Fam, entry: entry}
	t.idx.Insert(h, slot, t.hashOf)
	return slot
}

// remove erases the key at slot from the index and recycles the node and
// its side cell.
func (t *pairTable) remove(slot uint32) {
	t.idx.Delete(t.hashOf(slot), slot)
	n := t.nodes.At(slot)
	t.pairs.Free(n.pair, n.fam)
	t.nodes.Free(slot)
}

// Resolver is the DNS cache replica. Not safe for concurrent use; shard by
// client address for parallel deployments (the paper suggests odd/even
// fourth-octet sharding).
type Resolver struct {
	cfg     Config
	names   *names.Table
	flat    *pairTable
	entries swiss.Slab[Entry]
	// clist holds entry slots, or noSlot for a tombstone: the place of an
	// entry freed once superseded. It grows on demand up to cfg.ClistSize
	// and only then behaves as a ring. The FIFO semantics are identical to
	// a preallocated ring — slots fill in index order before any slot is
	// ever recycled — but a lightly loaded resolver never pays for a
	// million-slot array.
	clist []uint32
	next  int
	stats Stats
}

// New creates a resolver with a name table of its own.
func New(cfg Config) *Resolver { return NewWithNames(cfg, names.New()) }

// NewWithNames creates a resolver whose entries name their FQDNs in nt,
// the name table its pipeline's DNS decoder files QNAMEs in (InsertID).
func NewWithNames(cfg Config, nt *names.Table) *Resolver {
	if cfg.ClistSize <= 0 {
		cfg.ClistSize = 1 << 20
	}
	r := &Resolver{cfg: cfg, names: nt, flat: newPairTable()}
	nt.Hold(r.holdNames)
	return r
}

// holdNames hands keep the FQDN of every entry: a sweep of the name table
// keeps them, so the entries count no references. A freed entry's is 0.
func (r *Resolver) holdNames(keep func(id uint32)) {
	for s := range r.entries.Len() {
		keep(r.entries.At(s).FQDN)
	}
}

// Stats returns a snapshot of the counters. EntriesAlive is the number of
// filled Clist slots: a live entry's, or the tombstone of an entry freed
// once superseded. It grows to ClistSize and stays there.
func (r *Resolver) Stats() Stats {
	s := r.stats
	s.EntriesAlive = len(r.clist)
	return s
}

// Insert records one DNS response: clientIP asked for fqdn and received the
// given server addresses (Algorithm 1, INSERT). Responses with no addresses
// are counted but change nothing.
func (r *Resolver) Insert(clientIP netip.Addr, fqdn string, servers []netip.Addr, at time.Duration) {
	var id uint32
	if len(servers) > 0 {
		r.names.Collect()
		id = r.names.ID(fqdn)
	}
	r.InsertID(clientIP, id, servers, at)
}

// InsertID is Insert for a name already filed in the resolver's name
// table as fqdn.
func (r *Resolver) InsertID(clientIP netip.Addr, fqdn uint32, servers []netip.Addr, at time.Duration) {
	r.stats.Responses++
	if fqdn == 0 || len(servers) == 0 {
		return
	}
	es := r.entries.Alloc()
	entry := r.entries.At(es)
	*entry = Entry{FQDN: fqdn, At: at, refs: noSlot, names: 1, pos: noSlot}
	// Link entry from every (clientIP, server) key (lines 5–21).
	ft := r.flat
	for _, serverIP := range servers {
		r.stats.Addresses++
		var k swiss.PairKey
		h := ft.key(&k, clientIP, serverIP)
		slot := ft.find(&k, h)
		if slot == noSlot {
			slot = ft.insert(&k, h, es)
		} else {
			// Replace the old reference (Algorithm 1, lines 11–15): the old
			// entry loses this node.
			r.stats.Replaced++
			n := ft.nodes.At(slot)
			r.unlink(slot)
			r.release(n.entry)
			n.entry = es
		}
		entry.names++
		r.link(slot)
	}
	// Recycle the next Clist slot (lines 22–25). While the list is still
	// below capacity L, slots are appended — index order, exactly the order
	// a preallocated ring would fill them.
	if len(r.clist) < r.cfg.ClistSize {
		entry.pos = uint32(len(r.clist))
		r.clist = append(r.clist, es)
		return
	}
	r.evict(r.clist[r.next])
	entry.pos = uint32(r.next)
	r.clist[r.next] = es
	r.next++
	if r.next == len(r.clist) {
		r.next = 0
	}
}

// link appends the node at slot to its entry's back-reference list, which
// is circular: the first node's prev is the last.
func (r *Resolver) link(slot uint32) {
	nodes := &r.flat.nodes
	n := nodes.At(slot)
	e := r.entries.At(n.entry)
	if e.refs == noSlot {
		n.prev, n.next, e.refs = slot, slot, slot
		return
	}
	first := nodes.At(e.refs)
	n.prev, n.next = first.prev, e.refs
	nodes.At(first.prev).next = slot
	first.prev = slot
}

// unlink takes the node at slot off its entry's back-reference list.
func (r *Resolver) unlink(slot uint32) {
	nodes := &r.flat.nodes
	n := nodes.At(slot)
	e := r.entries.At(n.entry)
	if n.next == slot {
		e.refs = noSlot
	} else {
		nodes.At(n.prev).next = n.next
		nodes.At(n.next).prev = n.prev
		if e.refs == slot {
			e.refs = n.next
		}
	}
}

// release drops one name of the entry at slot s and recycles the slot when
// none is left, or when only its Clist slot is: no node names it, so LOOKUP
// can never return it again, and its ring cell becomes a tombstone that
// keeps its FIFO place.
func (r *Resolver) release(s uint32) {
	e := r.entries.At(s)
	if e.names--; e.count() == 1 && e.pos != noSlot {
		r.clist[e.pos] = noSlot
		e.names, e.pos = 0, noSlot
	}
	if e.count() == 0 {
		e.FQDN = 0
		r.entries.Free(s)
	}
}

// evict takes the entry at slot s out of the Clist and removes every node
// on its back-reference list — by slot, with no hash or probe. A
// tombstone's entry is gone already, so evicting one only counts.
func (r *Resolver) evict(s uint32) {
	r.stats.Evictions++
	if s == noSlot {
		return
	}
	e := r.entries.At(s)
	// Off the ring first: the releases below must not tombstone the slot
	// being recycled.
	e.pos = noSlot
	ft := r.flat
	for e.refs != noSlot {
		slot := e.refs
		r.unlink(slot)
		r.release(s)
		ft.remove(slot)
		r.stats.EvictedRefs++
	}
	r.release(s) // the Clist's name
}

// LookupEntry returns the entry clientIP most recently resolved to
// serverIP (Algorithm 1, LOOKUP): the FQDN plus the time the response was
// observed, used to measure first-flow delay (Fig. 12). ok is false on a
// cache miss. It is a single flat-table probe.
func (r *Resolver) LookupEntry(clientIP, serverIP netip.Addr) (*Entry, bool) {
	r.stats.Lookups++
	ft := r.flat
	var k swiss.PairKey
	if slot := ft.find(&k, ft.key(&k, clientIP, serverIP)); slot != noSlot {
		r.stats.Hits++
		return r.entries.At(ft.nodes.At(slot).entry), true
	}
	r.stats.Misses++
	return nil, false
}

// Add accumulates o into s (per-shard merge). Every field sums, because a
// sharded deployment partitions clients, and so Clist entries, across
// shards.
func (s *Stats) Add(o Stats) {
	s.Responses += o.Responses
	s.Addresses += o.Addresses
	s.Replaced += o.Replaced
	s.Evictions += o.Evictions
	s.EvictedRefs += o.EvictedRefs
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Misses += o.Misses
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
