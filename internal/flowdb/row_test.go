package flowdb

import (
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/stats"
)

// TestRowLayout: a stored flow is at most 96 B and holds no pointer, so
// the GC never scans a chunk. The walk covers nested arrays and structs,
// so a string or netip.Addr (its zone is a pointer) slipped into row in
// any form fails here.
func TestRowLayout(t *testing.T) {
	if size := unsafe.Sizeof(row{}); size > 96 {
		t.Fatalf("row is %d B, want <= 96", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				fd := typ.Field(i)
				walk(path+"."+fd.Name, fd.Type)
			}
		default:
			t.Errorf("row%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk("", reflect.TypeOf(row{}))
}

// stored is what a DB gives back for f: f itself, with SLD derived from
// Label when the flow is Labeled and "" otherwise.
func stored(f LabeledFlow) LabeledFlow {
	f.SLD = ""
	if f.Labeled {
		f.SLD = stats.SLD(f.Label)
	}
	return f
}

// fuzzAddr builds an address from fuzz input: no bytes is the zero Addr,
// four an IPv4 address, anything else an IPv6 address of those bytes
// (zero-padded or cut to 16) carrying zone.
func fuzzAddr(b []byte, zone string) netip.Addr {
	switch len(b) {
	case 0:
		return netip.Addr{}
	case 4:
		return netip.AddrFrom4([4]byte(b))
	}
	var a16 [16]byte
	copy(a16[:], b)
	return netip.AddrFrom16(a16).WithZone(zone)
}

// dirtyFlow returns a flow whose every field is non-zero, so a Load that
// leaves any field — including one added to LabeledFlow later — unwritten
// shows.
func dirtyFlow() LabeledFlow {
	var f LabeledFlow
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				if v.Field(i).CanSet() {
					fill(v.Field(i))
				}
			}
		case reflect.String:
			v.SetString("stale")
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(-1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(1)
		}
	}
	fill(reflect.ValueOf(&f).Elem())
	f.Key.ClientIP = netip.MustParseAddr("fe80::1%stale")
	f.Key.ServerIP = netip.MustParseAddr("192.0.2.255")
	return f
}

// checkFlows asserts db holds exactly stored(want[i]) for every i, through
// At and through Load into a dirty target.
func checkFlows(t *testing.T, what string, db *DB, want []LabeledFlow) {
	t.Helper()
	if db.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", what, db.Len(), len(want))
	}
	for i, w := range want {
		w = stored(w)
		if got := db.At(i); got != w {
			t.Fatalf("%s: At(%d) =\n%+v\nwant\n%+v", what, i, got, w)
		}
		dirty := dirtyFlow()
		if db.Load(i, &dirty); dirty != w {
			t.Fatalf("%s: Load(%d) into a used flow =\n%+v\nwant\n%+v", what, i, dirty, w)
		}
	}
}

// FuzzRowRoundTrip: for any flow, Add then At gives it back unchanged (SLD
// derived), whatever mix of repeated and empty strings the DB's flows
// share; Merge of DBs whose name tables number the same strings
// differently — and of a DB into itself — equals adding the concatenation;
// and after Reset, a reused DB yields no name from before.
func FuzzRowRoundTrip(f *testing.F) {
	mapped := netip.MustParseAddr("::ffff:192.0.2.1").As16()
	v6 := netip.MustParseAddr("2001:db8::1").As16()
	f.Add([]byte{}, []byte{}, "", "", "", "", "", "", "", int64(0), int64(0), int64(0), uint64(0), uint64(0), uint16(0), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{10, 0, 0, 1}, mapped[:], "", "www.example.com", "www.example.com", "www.example.com", "www.example.com", "*.example.com", "EU1",
		int64(time.Second), int64(2*time.Second), int64(250*time.Millisecond), uint64(5), uint64(1000), uint16(40000), uint16(443), uint8(6), uint8(2), uint8(3), uint8(0x1f))
	f.Add(v6[:], []byte{0xfe, 0x80, 15: 1}, "eth0", "a.b.example.co.uk", "c.example.org", "", "a.b.example.co.uk", "", "eth0",
		int64(math.MinInt64), int64(math.MaxInt64), int64(-1), uint64(math.MaxUint64), uint64(1<<63), uint16(math.MaxUint16), uint16(0), uint8(255), uint8(255), uint8(255), uint8(0xff))
	f.Add([]byte{1, 2, 3}, []byte{192, 0, 2, 7}, "z", "UPPER.Example.COM", "", "x", "x", "x", "", int64(-5), int64(5), int64(math.MinInt64), uint64(1), uint64(0), uint16(1), uint16(1), uint8(17), uint8(1), uint8(0), uint8(0x04))
	f.Fuzz(func(t *testing.T, client, server []byte, zone, label, truth, host, sni, cert, vantage string,
		start, end, delay int64, pkts, bytes uint64, cport, sport uint16, proto, l7, state, flags uint8) {
		fl := LabeledFlow{
			Record: flows.Record{
				Key: flows.Key{
					ClientIP:   fuzzAddr(client, zone),
					ServerIP:   fuzzAddr(server, vantage),
					ClientPort: cport, ServerPort: sport,
					Proto: layers.IPProtocol(proto),
				},
				Start: time.Duration(start), End: time.Duration(end),
				SawSYN: flags&1 != 0, State: flows.TCPState(state),
				PktsC2S: pkts, PktsS2C: ^pkts, BytesC2S: bytes, BytesS2C: bytes / 3,
				L7: flows.L7Proto(l7), HasCert: flags&2 != 0,
				HTTPHost: host, SNI: sni, CertName: cert,
			},
			Label: label, SLD: "ignored.example", Labeled: flags&4 != 0, PreFlow: flags&8 != 0,
			DNSDelay: time.Duration(delay), FirstAfterDNS: flags&16 != 0,
			Truth: truth, Vantage: vantage,
		}
		// The same strings in other fields and orders, so the tables below
		// number them differently; and the zero flow.
		swapped := fl
		swapped.Label, swapped.Truth, swapped.HTTPHost, swapped.SNI = cert, label, vantage, truth
		swapped.CertName, swapped.Vantage = sni, host
		swapped.Labeled = !fl.Labeled
		swapped.Key.ClientIP, swapped.Key.ServerIP = fl.Key.ServerIP, fl.Key.ClientIP
		fs := []LabeledFlow{fl, swapped, {}, fl}

		add := func(fs ...LabeledFlow) *DB {
			db := New()
			for _, f := range fs {
				db.Add(f)
			}
			return db
		}
		checkFlows(t, "Add", add(fs...), fs)

		// Merge: a destination that filed other strings first, and sources
		// numbered from different first flows.
		a, b := add(fs[1], fs[0]), add(fs[2], fs[3], fs[1])
		dst := add(fs[3])
		dst.Merge(a, New(), b)
		checkFlows(t, "Merge", dst, []LabeledFlow{fs[3], fs[1], fs[0], fs[2], fs[3], fs[1]})
		dst.Merge(dst)
		checkFlows(t, "self-Merge", dst, []LabeledFlow{fs[3], fs[1], fs[0], fs[2], fs[3], fs[1], fs[3], fs[1], fs[0], fs[2], fs[3], fs[1]})

		// Reset: reuse holds only the new flow's names.
		db := add(fs...)
		db.Reset()
		fresh := LabeledFlow{Label: "reset.example", Labeled: true}
		db.Add(fresh)
		checkFlows(t, "Reset", db, []LabeledFlow{fresh})
		for _, s := range []string{zone, label, truth, host, sni, cert, vantage} {
			if s == "" || s == fresh.Label || s == stats.SLD(fresh.Label) {
				continue
			}
			if db.filed(s) {
				t.Fatalf("after Reset the name table still files %q", s)
			}
		}
	})
}

// filed reports whether db's name table holds s.
func (db *DB) filed(s string) bool {
	for id := range db.names.End() {
		if db.names.Str(id) == s {
			return true
		}
	}
	return false
}

// mergeFlow is the i-th flow of FuzzMergeRoundTrip: kind's low two bits
// pick the client's form and the next two the server's (IPv4, IPv6, IPv6
// with a zone, the zero Addr), and its label and zone vary with i so the
// DBs below number names differently.
func mergeFlow(kind byte, i int) LabeledFlow {
	addr := func(form byte) netip.Addr {
		switch form & 3 {
		case 0:
			return netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), form})
		case 1:
			return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 8: byte(i >> 8), 9: byte(i), 15: form})
		case 2:
			return netip.AddrFrom16([16]byte{0xfe, 0x80, 8: byte(i >> 8), 9: byte(i), 15: form}).
				WithZone(fmt.Sprintf("eth%d", i%3))
		}
		return netip.Addr{}
	}
	f := LabeledFlow{
		Record: flows.Record{
			Key: flows.Key{
				ClientIP: addr(kind), ServerIP: addr(kind >> 2),
				ClientPort: uint16(i), ServerPort: 443, Proto: layers.IPProtocolTCP,
			},
			Start: time.Duration(i), End: time.Duration(i + 1),
		},
		Label:   fmt.Sprintf("h%d.example", (i*7+int(kind))%5),
		Labeled: kind&16 != 0,
	}
	f.Truth = f.Label
	return f
}

// FuzzMergeRoundTrip: Merge keeps every row's addresses, whose IPv6 forms
// live in each DB's IPv6 log. The input deals IPv4 rows, IPv6 rows with
// and without a zone, and zero-Addr rows into three DBs, which are merged
// in every order into a fresh DB, into a Reset DB that held IPv6 rows and
// into a DB holding IPv6 rows already, and then into themselves; every
// merged row must decode to the flow that was added.
func FuzzMergeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Add([]byte{0x05, 0x0a, 0x0f, 0x16, 0x1b, 0x0c, 0x03, 0x30, 0x31, 0x32})
	f.Add([]byte{0xff, 0x5a, 0x96, 0x27, 0x48, 0xe1, 0x7c, 0x13, 0x66, 0x81, 0x9d, 0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		var lists [3][]LabeledFlow
		for i, b := range data {
			lists[i%3] = append(lists[i%3], mergeFlow(b, i))
		}
		add := func(db *DB, fs ...LabeledFlow) *DB {
			for _, f := range fs {
				db.Add(f)
			}
			return db
		}
		// v6 is a few rows with IPv6 addresses at both ends, some zoned.
		v6 := []LabeledFlow{mergeFlow(0x05, 1000), mergeFlow(0x0a, 1001), mergeFlow(0x06, 1002)}
		dsts := []struct {
			name string
			new  func() (*DB, []LabeledFlow)
		}{
			{"fresh", func() (*DB, []LabeledFlow) { return New(), nil }},
			{"reset", func() (*DB, []LabeledFlow) {
				db := add(New(), v6...)
				db.Reset()
				return db, nil
			}},
			{"filled", func() (*DB, []LabeledFlow) {
				return add(New(), v6...), append([]LabeledFlow(nil), v6...)
			}},
		}
		for _, p := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			for _, d := range dsts {
				dst, want := d.new()
				srcs := make([]*DB, 3)
				for k, i := range p {
					srcs[k] = add(New(), lists[i]...)
					want = append(want, lists[i]...)
				}
				what := fmt.Sprintf("%s dst, order %v", d.name, p)
				dst.Merge(srcs...)
				checkFlows(t, what, dst, want)
				dst.Merge(dst)
				checkFlows(t, what+", self-Merge", dst, append(want, want...))
			}
		}
	})
}
