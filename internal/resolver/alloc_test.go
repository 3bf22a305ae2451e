package resolver

import (
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// Once the Clist has wrapped, the resolver runs on recycled entries and
// nodes: a saturated steady state must insert and look up without
// allocating.

func TestInsertSteadyStateZeroAlloc(t *testing.T) {
	client := netip.MustParseAddr("10.0.0.1")
	servers := []netip.Addr{netip.MustParseAddr("192.0.2.10"), netip.MustParseAddr("192.0.2.11")}
	// Two names alternate, so every replacement frees the displaced entry.
	names := [2]string{"cdn.example.com", "img.example.com"}
	r := New(Config{ClistSize: 32})
	// Fill the Clist past capacity so eviction and the free lists kick in.
	i := 0
	for ; i < 128; i++ {
		r.Insert(client, names[i%2], servers, time.Duration(i))
	}
	if n := testing.AllocsPerRun(1000, func() {
		i++
		r.Insert(client, names[i%2], servers, time.Second)
	}); n != 0 {
		t.Fatalf("steady-state insert allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := r.Lookup(client, servers[0]); !ok {
			t.Fatal("lookup miss")
		}
	}); n != 0 {
		t.Fatalf("lookup allocates %v/op, want 0", n)
	}
}

// Eviction churn runs on recycled nodes too: every insert names a server
// whose key the Clist evicted, so it files a fresh node and its eviction
// removes one. A key that is not two IPv4 addresses takes a side cell,
// which the removal must free: each measured op inserts more keys than a
// slab chunk holds, so a leaked cell shows as a fresh chunk every op.
func TestEvictionChurnZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		client netip.Addr
		server func(i int) netip.Addr
	}{
		{"ipv4", netip.MustParseAddr("10.0.0.1"), func(i int) netip.Addr { return netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}) }},
		{"ipv6", netip.MustParseAddr("fd00::1"), func(i int) netip.Addr {
			return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)})
		}},
	} {
		r := New(Config{ClistSize: 32})
		servers := make([]netip.Addr, 64)
		for i := range servers {
			servers[i] = tc.server(i)
		}
		i := 0
		insert := func() {
			j := i % len(servers)
			r.Insert(tc.client, "cdn.example.com", servers[j:j+1], time.Duration(i))
			i++
		}
		for range 128 {
			insert()
		}
		if n := testing.AllocsPerRun(20, func() {
			for range 300 {
				insert()
			}
		}); n != 0 {
			t.Errorf("%s: eviction churn allocates %v per 300 inserts, want 0", tc.name, n)
		}
		if st := r.Stats(); st.EvictedRefs == 0 {
			t.Errorf("%s: no key was evicted", tc.name)
		}
	}
}

// The resolver's footprint is its node and entry layout: a pair node is
// 24 bytes (an IPv4 key inline, no cached hash) and an entry 24 bytes (the
// Used flag rides in the name count), and neither holds a pointer, so their
// slab chunks are never scanned by the GC.
func TestLayout(t *testing.T) {
	if n := unsafe.Sizeof(pairNode{}); n != 24 {
		t.Errorf("pairNode is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(Entry{}); n != 24 {
		t.Errorf("Entry is %d bytes, want 24", n)
	}
	for _, v := range []any{pairNode{}, Entry{}} {
		if typ := reflect.TypeOf(v); hasPointer(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// hasPointer reports whether a value of type t contains a pointer the GC
// would scan.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointer(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}

// TestFillBytesPerResponse bounds what a filling Clist allocates per DNS
// response, the cost that sizes a deployment's L: 4,096 responses from 64
// clients, each carrying three servers no earlier response named.
func TestFillBytesPerResponse(t *testing.T) {
	const responses, budget = 4096, 192
	r := New(Config{})
	var servers [3]netip.Addr
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range responses {
		client := netip.AddrFrom4([4]byte{10, 0, 0, byte(i % 64)})
		for k := range servers {
			j := 3*i + k
			servers[k] = netip.AddrFrom4([4]byte{198, 18, byte(j >> 8), byte(j)})
		}
		r.Insert(client, "cdn.example.com", servers[:], time.Duration(i))
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / responses; per > budget {
		t.Errorf("filling allocates %.0f B per response, want <= %d", per, budget)
	} else {
		t.Logf("filling allocates %.0f B per response", per)
	}
}

// The Clist grows lazily: a lightly loaded resolver must not preallocate
// (or make the GC repeatedly scan) the full million-slot ring.
func TestClistLazyGrowth(t *testing.T) {
	r := New(Config{ClistSize: 1 << 20})
	if got := len(r.clist); got != 0 {
		t.Fatalf("fresh resolver clist len = %d, want 0", got)
	}
	client := netip.MustParseAddr("10.0.0.1")
	for i := 0; i < 100; i++ {
		r.Insert(client, "a.example.com", []netip.Addr{netip.MustParseAddr("192.0.2.1")}, 0)
	}
	if got := len(r.clist); got != 100 {
		t.Fatalf("clist len = %d, want 100", got)
	}
	if r.stats.Evictions != 0 {
		t.Fatalf("evictions before capacity: %d", r.stats.Evictions)
	}
}
