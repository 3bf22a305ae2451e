package resolver

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"
)

// orderedRef is the reference model the flat pair table is tested against:
// the paper's two-level lookup structure stated plainly — clientIP → an
// ordered serverIP map (a sorted slice searched by binary search, O(log n)
// like the paper's C++ std::map) → node — over a preallocated FIFO Clist.
// It has no hashing, slabs or free lists, and keeps the same Stats as the
// Resolver, so the differential tests can compare every counter.
type orderedRef struct {
	cfg     Config
	clients map[netip.Addr]*orderedServerMap
	clist   []*refEntry
	next    int
	alive   int
	stats   Stats
}

func newOrderedRef(cfg Config) *orderedRef {
	return &orderedRef{
		cfg:     cfg,
		clients: make(map[netip.Addr]*orderedServerMap),
		clist:   make([]*refEntry, cfg.ClistSize),
	}
}

// refEntry is the model's Clist entry: the response's FQDN and time, the
// client that resolved it and the servers whose keys still point at it, in
// the order they were linked.
type refEntry struct {
	fqdn    string
	at      time.Duration
	client  netip.Addr
	servers []netip.Addr
	live    bool
}

// removeServer drops the back-reference to srv (replacement path).
func (e *refEntry) removeServer(srv netip.Addr) {
	if i := slices.Index(e.servers, srv); i >= 0 {
		e.servers = slices.Delete(e.servers, i, i+1)
	}
}

// node holds the newest entry for a (client, server) key plus bounded
// history of displaced entries, newest first.
type node struct {
	entry *refEntry
	older []*refEntry
}

// orderedServerMap is one client's inner map: entries sorted by server
// address, looked up by binary search. Matches the strict-weak-ordering
// criterion the paper describes for its C++ maps.
type orderedServerMap struct {
	keys  []netip.Addr
	nodes []*node
}

func (m *orderedServerMap) search(a netip.Addr) int {
	return sort.Search(len(m.keys), func(i int) bool { return m.keys[i].Compare(a) >= 0 })
}

func (m *orderedServerMap) get(a netip.Addr) (*node, bool) {
	i := m.search(a)
	if i < len(m.keys) && m.keys[i] == a {
		return m.nodes[i], true
	}
	return nil, false
}

func (m *orderedServerMap) put(a netip.Addr, n *node) {
	i := m.search(a)
	if i < len(m.keys) && m.keys[i] == a {
		m.nodes[i] = n
		return
	}
	m.keys = append(m.keys, netip.Addr{})
	m.nodes = append(m.nodes, nil)
	copy(m.keys[i+1:], m.keys[i:])
	copy(m.nodes[i+1:], m.nodes[i:])
	m.keys[i] = a
	m.nodes[i] = n
}

func (m *orderedServerMap) del(a netip.Addr) {
	i := m.search(a)
	if i < len(m.keys) && m.keys[i] == a {
		m.keys = append(m.keys[:i], m.keys[i+1:]...)
		m.nodes = append(m.nodes[:i], m.nodes[i+1:]...)
	}
}

func (m *orderedServerMap) size() int { return len(m.keys) }

// Insert is Algorithm 1's INSERT: link a fresh entry from every (client,
// server) key, then recycle the next Clist slot.
func (m *orderedRef) Insert(client netip.Addr, fqdn string, servers []netip.Addr, at time.Duration) {
	m.stats.Responses++
	if fqdn == "" || len(servers) == 0 {
		return
	}
	e := &refEntry{fqdn: fqdn, at: at, client: client, live: true}
	m.alive++
	sm, ok := m.clients[client]
	if !ok {
		sm = &orderedServerMap{}
		m.clients[client] = sm
	}
	for _, srv := range servers {
		m.stats.Addresses++
		if n, ok := sm.get(srv); ok {
			old := n.entry
			old.removeServer(srv)
			m.stats.Replaced++
			if m.cfg.History > 0 && old.fqdn != fqdn {
				n.older = append([]*refEntry{old}, n.older...)
				if len(n.older) > m.cfg.History {
					n.older = n.older[:m.cfg.History]
				}
			}
			n.entry = e
		} else {
			sm.put(srv, &node{entry: e})
		}
		e.servers = append(e.servers, srv)
	}
	if old := m.clist[m.next]; old != nil && old.live {
		m.evict(old)
	}
	m.clist[m.next] = e
	m.next = (m.next + 1) % len(m.clist)
}

// evict removes every key still pointing at e, promoting history where a
// key has some and dropping a client whose inner map empties.
func (m *orderedRef) evict(e *refEntry) {
	m.stats.Evictions++
	for _, srv := range e.servers {
		sm, ok := m.clients[e.client]
		if !ok {
			continue
		}
		n, ok := sm.get(srv)
		if !ok {
			continue
		}
		if n.entry == e {
			if len(n.older) > 0 {
				n.entry, n.older = n.older[0], n.older[1:]
				continue
			}
			sm.del(srv)
			m.stats.EvictedRefs++
			if sm.size() == 0 {
				delete(m.clients, e.client)
			}
			continue
		}
		for i, h := range n.older {
			if h == e {
				n.older = append(n.older[:i], n.older[i+1:]...)
				break
			}
		}
	}
	e.servers = nil
	e.live = false
	m.alive--
}

func (m *orderedRef) node(client, server netip.Addr) *node {
	if sm, ok := m.clients[client]; ok {
		if n, ok := sm.get(server); ok {
			return n
		}
	}
	return nil
}

// Lookup is Algorithm 1's LOOKUP.
func (m *orderedRef) Lookup(client, server netip.Addr) (string, bool) {
	m.stats.Lookups++
	n := m.node(client, server)
	if n == nil {
		m.stats.Misses++
		return "", false
	}
	m.stats.Hits++
	return n.entry.fqdn, true
}

// LookupAll returns the key's FQDNs, newest first.
func (m *orderedRef) LookupAll(client, server netip.Addr) []string {
	n := m.node(client, server)
	if n == nil {
		return nil
	}
	out := []string{n.entry.fqdn}
	for _, h := range n.older {
		out = append(out, h.fqdn)
	}
	return out
}

// snapshot is the model's Snapshot: a FIFO walk of the Clist, oldest first,
// skipping evicted slots and entries with no servers left.
func (m *orderedRef) snapshot() []SnapshotEntry {
	out := []SnapshotEntry{}
	for i := range m.clist {
		e := m.clist[(m.next+i)%len(m.clist)]
		if e == nil || !e.live || len(e.servers) == 0 {
			continue
		}
		out = append(out, SnapshotEntry{Client: e.client, Servers: e.servers, FQDN: e.fqdn, At: e.at})
	}
	return out
}

func (m *orderedRef) Stats() Stats {
	s := m.stats
	s.EntriesAlive = m.alive
	return s
}

func TestOrderedServerMapOps(t *testing.T) {
	m := &orderedServerMap{}
	addrs := []netip.Addr{s3, s1, s2}
	for i, a := range addrs {
		m.put(a, &node{entry: &refEntry{fqdn: fmt.Sprintf("e%d", i)}})
	}
	if m.size() != 3 {
		t.Fatalf("size = %d", m.size())
	}
	// Keys must be sorted.
	for i := 1; i < len(m.keys); i++ {
		if m.keys[i-1].Compare(m.keys[i]) >= 0 {
			t.Fatalf("keys unsorted: %v", m.keys)
		}
	}
	if n, ok := m.get(s1); !ok || n.entry.fqdn != "e1" {
		t.Fatalf("get(s1) = %v %v", n, ok)
	}
	m.put(s1, &node{entry: &refEntry{fqdn: "replaced"}})
	if n, _ := m.get(s1); n.entry.fqdn != "replaced" {
		t.Fatal("put did not replace")
	}
	m.del(s1)
	if _, ok := m.get(s1); ok {
		t.Fatal("del did not remove")
	}
	m.del(s1) // idempotent
	if m.size() != 2 {
		t.Fatalf("size after del = %d", m.size())
	}
}

// L returns the configured Clist size.
func (r *Resolver) L() int { return r.cfg.ClistSize }

// Lookup returns the FQDN clientIP most recently resolved to serverIP
// (Algorithm 1, LOOKUP). ok is false on a cache miss.
func (r *Resolver) Lookup(clientIP, serverIP netip.Addr) (fqdn string, ok bool) {
	e, ok := r.LookupEntry(clientIP, serverIP)
	if !ok {
		return "", false
	}
	return r.names.Str(e.FQDN), true
}

// LookupAll returns every FQDN currently associated with (clientIP,
// serverIP), newest first. With Config.History == 0 this is at most one
// name. The multi-label extension discussed in §6.
func (r *Resolver) LookupAll(clientIP, serverIP netip.Addr) []string {
	ft := r.flat
	var k pairKey
	slot := ft.find(&k, ft.key(&k, clientIP, serverIP))
	if slot == noSlot {
		return nil
	}
	n := ft.nodes.At(slot)
	out := []string{r.names.Str(r.entries.At(n.entry).FQDN)}
	for c := n.older; c != noSlot; c = r.hist.At(c).next {
		out = append(out, r.names.Str(r.entries.At(r.hist.At(c).entry).FQDN))
	}
	return out
}
