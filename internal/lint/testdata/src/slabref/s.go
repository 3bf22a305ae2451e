// Package slabref is the fixture for the slabref analyzer: every way a
// slab-slot pointer can outlive a statement is seeded once, and the
// sanctioned statement-scoped accessor shows the justified suppression.
package slabref

//dnhunter:slab
type node struct {
	key  uint64
	next uint32
}

type table struct {
	slab  []node
	head  *node   // want `struct field holds a slab-slot pointer`
	cache []*node // want `struct field holds a slab-slot pointer`
}

var global *node

func (t *table) at(i uint32) *node {
	//dnhunter:slab-ok statement-scoped accessor; callers must not retain across growth
	return &t.slab[i]
}

func (t *table) bad(i uint32) *node {
	return &t.slab[i] // want `returning a slab-slot pointer`
}

func (t *table) uses(i uint32) uint64 {
	n := t.at(i) // local variable: statement-scoped, allowed
	return n.key
}

func (t *table) store(i uint32) {
	global = t.at(i) // want `storing a slab-slot pointer outside a local variable`
}

func (t *table) collect(i uint32, dst []*node) []*node {
	return append(dst, t.at(i)) // want `appending a slab-slot pointer`
}

func (t *table) send(ch chan *node, i uint32) {
	ch <- t.at(i) // want `sending a slab-slot pointer`
}

func (t *table) lit(i uint32) {
	_ = []*node{t.at(i)} // want `composite literal`
}

// Unmarked types stay out of scope.
type other struct{ v int }

type holder struct{ o *other }

// A slab type used as a type argument stays in scope: slots[node] is how
// the engine's ring[E] holds its entries, and a *node that comes out of the
// generic container is still a slab-slot pointer.
type slots[E any] struct {
	entries []E
}

func (s *slots[E]) at(i int) *E { return &s.entries[i] }

type batch struct {
	slots slots[node]
	last  *node          // want `struct field holds a slab-slot pointer`
	ptrs  slots[*node]   // want `struct field holds a slab-slot pointer`
	byKey map[uint64]int // handles, not pointers: allowed
}

func (b *batch) first() *node {
	return b.slots.at(0) // want `returning a slab-slot pointer`
}

func (b *batch) keep() {
	n := b.slots.at(0)           // local variable: statement-scoped, allowed
	b.last = n                   // want `storing a slab-slot pointer outside a local variable`
	global = &b.slots.entries[0] // want `storing a slab-slot pointer outside a local variable`
}
