// Package atomicfield is the fixture for the atomicfield analyzer:
// mixed atomic/plain access to one field, an unpadded hotatomic struct,
// and the padded layout the ring actually uses.
package atomicfield

import "sync/atomic"

// counter mixes sync/atomic calls with a plain read of the same field.
type counter struct {
	n uint64
}

func (c *counter) inc() {
	atomic.AddUint64(&c.n, 1) // the atomic side: allowed on its own
}

func (c *counter) read() uint64 {
	return c.n // want `accessed with sync/atomic elsewhere`
}

//dnhunter:hotatomic
type ring struct {
	head atomic.Uint64
	tail atomic.Uint64 // want `share a cache line`
}

//dnhunter:hotatomic
type paddedRing struct {
	head   atomic.Uint64
	_      [56]byte
	tail   atomic.Uint64 // 64 bytes from head: allowed
	closed atomic.Bool   // Bool flags are exempt from the padding rule
}

//dnhunter:hotatomic
type notStruct int // want `applies to struct types only`

// fine uses typed atomics only: no mixed access, no marker, no finding.
type fine struct {
	v atomic.Uint64
}

func (f *fine) get() uint64 { return f.v.Load() }

// Generic structs keep the padding rule.

//dnhunter:hotatomic
type genericRing[E any] struct {
	slots [][]E
	head  atomic.Uint64
	tail  atomic.Uint64 // want `share a cache line`
}

//dnhunter:hotatomic
type paddedGenericRing[E any] struct {
	slots [][]E
	head  atomic.Uint64
	_     [56]byte
	tail  atomic.Uint64 // 64 bytes from head: allowed
}

func (r *genericRing[E]) depth() uint64 { return r.head.Load() - r.tail.Load() }

func (r *paddedGenericRing[E]) depth() uint64 { return r.head.Load() - r.tail.Load() }
