package flows

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/layers"
	"repro/internal/names"
	"repro/internal/tlswire"
)

// --- payloads -----------------------------------------------------------------

func tlsRecord(t testing.TB, typ uint8, msgs ...[]byte) []byte {
	raw, err := tlswire.AppendRecord(nil, typ, bytes.Join(msgs, nil))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func marshal(t testing.TB, m interface{ Marshal() ([]byte, error) }) []byte {
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func certMsg(t testing.TB, names ...string) []byte {
	var chain [][]byte
	for _, n := range names {
		der, err := tlswire.MarshalCertificate(n)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, der)
	}
	return marshal(t, &tlswire.Certificate{Chain: chain})
}

func clientHello(t testing.TB, sni string) []byte {
	return tlsRecord(t, tlswire.RecordHandshake, marshal(t, &tlswire.ClientHello{ServerName: sni}))
}

func serverFlight(t testing.TB, names ...string) []byte {
	msgs := [][]byte{marshal(t, &tlswire.ServerHello{})}
	if len(names) > 0 {
		msgs = append(msgs, certMsg(t, names...))
	}
	return tlsRecord(t, tlswire.RecordHandshake, msgs...)
}

func btHandshake() []byte {
	hs := append([]byte{19}, "BitTorrent protocol"...)
	return append(hs, make([]byte, 48)...)
}

// payloadRow is one connection's client and server byte streams.
type payloadRow struct {
	name     string
	c2s, s2c []byte
}

// classifyRows are the payload shapes the classifier distinguishes,
// including the ones where classification waits for more bytes.
func classifyRows(t testing.TB) []payloadRow {
	appData := tlsRecord(t, tlswire.RecordApplicationData, make([]byte, 300))
	long := []byte("GET /" + string(bytes.Repeat([]byte("a"), 4200)) + " HTTP/1.1\r\nHost: late.example\r\n\r\n")
	return []payloadRow{
		{"http", []byte("GET /r1 HTTP/1.1\r\nHost: WWW.Example.COM\r\nUser-Agent: t\r\n\r\n"),
			append([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2000\r\n\r\n"), make([]byte, 2000)...)},
		{"http-host-last", []byte("POST / HTTP/1.1\r\nhost:  tail.example.org "), nil},
		{"http-empty-host", []byte("GET / HTTP/1.1\r\nHost: \r\nHost: second.example\r\n\r\n"), nil},
		{"http-no-host", []byte("HEAD / HTTP/1.0\r\nAccept: */*\r\n\r\n"), nil},
		{"http-over-cap", long, nil},
		{"tls-sni-cert", clientHello(t, "mail.google.com"), serverFlight(t, "*.google.com", "Intermediate CA")},
		{"tls-sni-cert-appdata", append(clientHello(t, "Mixed.Case.example"), appData...),
			append(serverFlight(t, "leaf.example"), appData...)},
		{"tls-no-sni", append(clientHello(t, ""), appData...), append(serverFlight(t), appData...)},
		{"tls-no-sni-open", clientHello(t, ""), serverFlight(t)},
		{"tls-nameless-cert", clientHello(t, "x.example"), serverFlight(t, "")},
		{"tls-cert-second-record", clientHello(t, "y.example"),
			append(tlsRecord(t, tlswire.RecordHandshake, marshal(t, &tlswire.ServerHello{})),
				tlsRecord(t, tlswire.RecordHandshake, certMsg(t, "z.example"))...)},
		{"bittorrent", btHandshake(), btHandshake()},
		{"opaque", []byte("\x01SVC hello 7\r\n"), []byte("\x01SVC ok\r\n")},
		{"opaque-long", bytes.Repeat([]byte{7}, 100), bytes.Repeat([]byte{9}, 100)},
	}
}

// --- reference classifier -------------------------------------------------------

// refClassifier is the classifier with nothing skipped: both prefixes
// capture every byte up to prefixCap, every payload packet re-runs the
// classification and the certificate inspection, and the close re-runs
// them once more over the final prefixes. The table must reach the same
// L7, HTTPHost, SNI and certificate for every connection with at most one
// ClientHello.
type refClassifier struct {
	c2s, s2c              []byte
	rec                   Record
	classified, inspected bool
}

func (r *refClassifier) add(payload []byte, c2s bool) {
	if c2s {
		r.c2s = appendPrefix(r.c2s, payload)
	} else {
		r.s2c = appendPrefix(r.s2c, payload)
	}
	r.classify()
}

func (r *refClassifier) classify() {
	if !r.classified && len(r.c2s) > 0 {
		switch {
		case isHTTPRequest(r.c2s):
			r.rec.L7 = L7HTTP
			host, _ := httpHost(r.c2s, true)
			r.rec.HTTPHost = asciiLower(host)
			r.classified = r.rec.HTTPHost != "" || len(r.c2s) >= prefixCap
		case tlswire.LooksLikeTLS(r.c2s):
			r.rec.L7 = L7TLS
			if h := tlswire.Scan(r.c2s); len(h.SNI) > 0 {
				r.rec.SNI = string(h.SNI)
				r.classified = true
			}
		case isBitTorrent(r.c2s):
			r.rec.L7 = L7P2P
			r.classified = true
		default:
			r.classified = len(r.c2s) >= 64
		}
	}
	if r.rec.L7 == L7TLS && !r.inspected && len(r.s2c) > 0 {
		if h := tlswire.Scan(r.s2c); h.HasCert {
			r.rec.CertName, r.rec.HasCert = string(h.AppendCertName(nil)), true
			r.inspected = true
		}
	}
}

// asciiLower lowercases A-Z only, as HTTP host names are compared.
func asciiLower(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

func (r *refClassifier) close() Record {
	r.classified = false
	r.classify()
	return r.rec
}

// --- replay -------------------------------------------------------------------

// segment is one payload packet of a connection.
type segment struct {
	c2s     bool
	payload []byte
}

// segmentRow cuts both streams of row into random segments and
// interleaves them; serverFirst puts a server segment first.
func segmentRow(rng *rand.Rand, row payloadRow, serverFirst bool) []segment {
	cut := func(b []byte, c2s bool) []segment {
		var out []segment
		for len(b) > 0 {
			n := 1 + rng.IntN(min(len(b), 1+rng.IntN(700)))
			out = append(out, segment{c2s, b[:n]})
			b = b[n:]
		}
		return out
	}
	c, s := cut(row.c2s, true), cut(row.s2c, false)
	var out []segment
	if serverFirst && len(s) > 0 {
		out, s = append(out, s[0]), s[1:]
	}
	for len(c) > 0 || len(s) > 0 {
		if len(s) == 0 || len(c) > 0 && rng.IntN(2) == 0 {
			out, c = append(out, c[0]), c[1:]
		} else {
			out, s = append(out, s[0]), s[1:]
		}
	}
	return out
}

// runSegments replays one connection (handshake, segs, FIN/FIN) on port.
func runSegments(tbl *Table, at time.Duration, port uint16, segs []segment) {
	runSegmentsOnNew(tbl, at, port, segs, nil)
}

// runSegmentsOnNew is runSegments with onNew passed to every Add.
func runSegmentsOnNew(tbl *Table, at time.Duration, port uint16, segs []segment, onNew NewFlowFunc) {
	tbl.Add(pkt(client, server, port, 443, layers.TCPSyn, nil), at, onNew)
	tbl.Add(pkt(server, client, 443, port, layers.TCPSyn|layers.TCPAck, nil), at+1, onNew)
	for i, s := range segs {
		if s.c2s {
			tbl.Add(pkt(client, server, port, 443, layers.TCPAck|layers.TCPPsh, s.payload), at+time.Duration(2+i), onNew)
		} else {
			tbl.Add(pkt(server, client, 443, port, layers.TCPAck|layers.TCPPsh, s.payload), at+time.Duration(2+i), onNew)
		}
	}
	n := time.Duration(len(segs))
	tbl.Add(pkt(client, server, port, 443, layers.TCPFin|layers.TCPAck, nil), at+n+2, onNew)
	tbl.Add(pkt(server, client, 443, port, layers.TCPFin|layers.TCPAck, nil), at+n+3, onNew)
}

func checkClassifyMatchesRef(t *testing.T, rng *rand.Rand, rows []payloadRow) {
	t.Helper()
	var got []Record
	tbl := NewTable(Config{OnRecord: func(r Record, _ Handle) { got = append(got, r) }})
	for i, row := range rows {
		segs := segmentRow(rng, row, rng.IntN(4) == 0)
		var ref refClassifier
		for _, s := range segs {
			ref.add(s.payload, s.c2s)
		}
		want := ref.close()
		got = got[:0]
		runSegments(tbl, time.Duration(i)*time.Second, uint16(30000+i), segs)
		if len(got) != 1 {
			t.Fatalf("%s: %d records", row.name, len(got))
		}
		g := got[0]
		if g.L7 != want.L7 || g.HTTPHost != want.HTTPHost || g.SNI != want.SNI ||
			g.HasCert != want.HasCert || g.CertName != want.CertName {
			t.Fatalf("%s (%d segments): got %v %q %q %v %q, full-capture reference %v %q %q %v %q",
				row.name, len(segs), g.L7, g.HTTPHost, g.SNI, g.HasCert, g.CertName,
				want.L7, want.HTTPHost, want.SNI, want.HasCert, want.CertName)
		}
	}
}

// TestClassifyMatchesFullCapture replays every payload row under many
// random segmentations and interleavings and requires the table's record
// to match the full-capture reference classifier.
func TestClassifyMatchesFullCapture(t *testing.T) {
	rows := classifyRows(t)
	for seed := range uint64(200) {
		checkClassifyMatchesRef(t, rand.New(rand.NewPCG(seed, 7)), rows)
	}
}

// FuzzClassifyVsFullCapture drives the same comparison with fuzzed client
// and server streams and segmentation seeds.
func FuzzClassifyVsFullCapture(f *testing.F) {
	for _, row := range classifyRows(f) {
		f.Add(row.c2s, row.s2c, uint64(len(row.c2s)))
	}
	f.Fuzz(func(t *testing.T, c2s, s2c []byte, seed uint64) {
		if n := tlsHelloCount(c2s); n > 1 {
			// With several ClientHellos the table keeps the first SNI it
			// reads; the reference re-reads the last one at close.
			t.Skip()
		}
		checkClassifyMatchesRef(t, rand.New(rand.NewPCG(seed, 7)), []payloadRow{{"fuzz", c2s, s2c}})
	})
}

// tlsHelloCount counts the ClientHello messages in complete handshake
// records at the start of p.
func tlsHelloCount(p []byte) int {
	n := 0
	for {
		rec, rest, err := tlswire.ReadRecord(p)
		if err != nil || rec.Type != tlswire.RecordHandshake {
			return n
		}
		for hs := rec.Payload; len(hs) >= 4; {
			l := int(hs[1])<<16 | int(hs[2])<<8 | int(hs[3])
			if 4+l > len(hs) {
				return n
			}
			if hs[0] == tlswire.HandshakeClientHello {
				n++
			}
			hs = hs[4+l:]
		}
		p = rest
	}
}

// --- allocation and capture pins ----------------------------------------------

// TestTableClassifyZeroAlloc replays payload-carrying connections — HTTP
// with a Host header and a response body, TLS with SNI and a certificate,
// TLS without SNI, a BitTorrent handshake — through a warm table: once the
// names are interned and the prefix buffers sized, a connection makes no
// heap allocation.
func TestTableClassifyZeroAlloc(t *testing.T) {
	rows := map[string]payloadRow{}
	for _, r := range classifyRows(t) {
		rows[r.name] = r
	}
	for _, name := range []string{"http", "tls-sni-cert", "tls-no-sni", "bittorrent"} {
		t.Run(name, func(t *testing.T) {
			row := rows[name]
			segs := []segment{{true, row.c2s}, {false, row.s2c}}
			var got Record
			tbl := NewTable(Config{OnRecord: func(r Record, _ Handle) { got = r }})
			var at time.Duration
			conn := func() {
				at += time.Second
				runSegments(tbl, at, 40000, segs)
			}
			conn()
			if n := testing.AllocsPerRun(100, conn); n != 0 {
				t.Fatalf("warm %s connection allocates %v, want 0", name, n)
			}
			if got.L7 == L7Unknown {
				t.Fatalf("%s not classified: %+v", name, got)
			}
		})
	}
}

// TestPrefixesStopGrowing pins the capture rule: once a flow is classified
// and its certificate read, later payload is counted but not copied, an
// HTTP response is never copied at all, and a first segment that settles
// the flow is read in place, never copied.
func TestPrefixesStopGrowing(t *testing.T) {
	for _, tc := range []struct {
		row      payloadRow
		c2s, s2c int // prefix lengths once the first flight is in; -1 unchecked
	}{
		{classifyRows(t)[0], 0, 0},
		{payloadRow{"tls", clientHello(t, "a.example"), serverFlight(t, "a.example")}, 0, -1},
	} {
		tbl := NewTable(Config{})
		tbl.Add(pkt(client, server, 40000, 443, layers.TCPSyn, nil), 0, nil)
		tbl.Add(pkt(client, server, 40000, 443, layers.TCPAck|layers.TCPPsh, tc.row.c2s), 1, nil)
		tbl.Add(pkt(server, client, 443, 40000, layers.TCPAck|layers.TCPPsh, tc.row.s2c), 2, nil)
		key := Key{ClientIP: client, ServerIP: server, ClientPort: 40000, ServerPort: 443, Proto: layers.IPProtocolTCP}
		pk := pack(&key)
		f := tbl.at(tbl.find(pk.hash(tbl.seed), &pk))
		if !f.classified || f.l7 == L7TLS && !f.inspected {
			t.Fatalf("%s: classified %v inspected %v after the first flight", tc.row.name, f.classified, f.inspected)
		}
		lens := func() (int, int) {
			if p := tbl.preOf(f); p != nil {
				return len(p.c2s), len(p.s2c)
			}
			return 0, 0
		}
		c2s, s2c := lens()
		if tc.c2s == 0 && c2s != 0 {
			t.Fatalf("%s: settling first segment copied (%d bytes)", tc.row.name, c2s)
		}
		if tc.s2c == 0 && s2c != 0 {
			t.Fatalf("%s: HTTP response copied (%d bytes)", tc.row.name, s2c)
		}
		for i := range 10 {
			at := time.Duration(3 + 2*i)
			tbl.Add(pkt(client, server, 40000, 443, layers.TCPAck|layers.TCPPsh, make([]byte, 500)), at, nil)
			tbl.Add(pkt(server, client, 443, 40000, layers.TCPAck|layers.TCPPsh, make([]byte, 500)), at+1, nil)
		}
		if c, s := lens(); c != c2s || s != s2c {
			t.Fatalf("%s: prefixes grew %d/%d → %d/%d after classification", tc.row.name, c2s, s2c, c, s)
		}
		if f.bytesC2S != uint64(len(tc.row.c2s)+5000) {
			t.Fatalf("%s: bytes c2s %d", tc.row.name, f.bytesC2S)
		}
	}
}

// TestSettledFirstSegmentNotCopied: on a fresh table, HTTP flows whose
// first segment carries the whole request head are classified in place,
// so no slot ever allocates a prefix buffer.
func TestSettledFirstSegmentNotCopied(t *testing.T) {
	var recs int
	tbl := NewTable(Config{OnRecord: func(r Record, _ Handle) {
		if r.L7 != L7HTTP || r.HTTPHost != "www.example.com" {
			t.Fatalf("record %+v", r)
		}
		recs++
	}})
	req := []byte("GET / HTTP/1.1\r\nHost: www.example.com\r\nAccept: */*\r\n\r\n")
	const n = 1000
	for i := range n {
		port := uint16(10000 + i)
		at := time.Duration(i) * time.Millisecond
		tbl.Add(pkt(client, server, port, 80, layers.TCPSyn, nil), at, nil)
		tbl.Add(pkt(server, client, 80, port, layers.TCPSyn|layers.TCPAck, nil), at, nil)
		tbl.Add(pkt(client, server, port, 80, layers.TCPAck|layers.TCPPsh, req), at, nil)
	}
	if got := tbl.Active(); got != n {
		t.Fatalf("active = %d, want %d", got, n)
	}
	for i := range uint32(n) {
		if p := tbl.preOf(tbl.at(i)); p != nil {
			t.Fatalf("slot %d allocated a prefix buffer (c2s %d bytes)", i, len(p.c2s))
		}
	}
	tbl.FlushAll()
	if recs != n {
		t.Fatalf("%d records, want %d", recs, n)
	}
}

// TestEntryLayout pins the recency entries of the flow table and of the
// Tracker: each holds no pointer, so the GC never scans their slabs, and
// keeps its size, which sets the bytes a live flow costs. The walk covers
// nested arrays and structs, so a string or netip.Addr (its zone is a
// pointer) slipped into either in any form fails here.
func TestEntryLayout(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		size uintptr
	}{
		{reflect.TypeOf(entry[flow]{}), 152},
		{reflect.TypeOf(entry[route]{}), 72},
	} {
		if c.typ.Size() != c.size {
			t.Errorf("%v is %d B, want %d", c.typ, c.typ.Size(), c.size)
		}
		var walk func(path string, typ reflect.Type)
		walk = func(path string, typ reflect.Type) {
			switch typ.Kind() {
			case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
				reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			case reflect.Array:
				walk(path+"[]", typ.Elem())
			case reflect.Struct:
				for i := range typ.NumField() {
					fd := typ.Field(i)
					walk(path+"."+fd.Name, fd.Type)
				}
			default:
				t.Errorf("%v%s is a %s, which holds a pointer", c.typ, path, typ.Kind())
			}
		}
		walk("", c.typ)
	}
}

// TestNamesInterned checks that equal names from different flows share one
// string, so a warm table stores a name once.
func TestNamesInterned(t *testing.T) {
	var recs []Record
	tbl := NewTable(Config{OnRecord: func(r Record, _ Handle) { recs = append(recs, r) }})
	for i := range 2 {
		runConn(tbl, time.Duration(i)*time.Second, 443, clientHello(t, "shared.example"), serverFlight(t, "shared.example"))
	}
	if len(recs) != 2 || recs[0].SNI != "shared.example" || recs[1].CertName != "shared.example" {
		t.Fatalf("records = %+v", recs)
	}
	if unsafe.StringData(recs[0].SNI) != unsafe.StringData(recs[1].CertName) {
		t.Fatal("equal names from two flows are two strings")
	}
	if n := tbl.names.End() - 1; n != 1 {
		t.Fatalf("the name table holds %d names, want 1", n)
	}
}

// TestLabelReuseMatchesUnlabeled replays every payload row, under random
// segmentations, through two tables: one whose onNew sets the flow's label
// (to each name the flow carries, to the SNI lowercased, to another name,
// to "") and one that sets none. The records must be equal string for
// string, a Host, SNI or certificate name equal to the label must be the
// label's own string, and once every flow is emitted no reference on any
// name is left: a sweep empties the table. The tls-sni-cert-appdata row carries the mixed-case SNI
// "Mixed.Case.example": against its lowercase label it stays as sent,
// since SNI is not lowercased.
func TestLabelReuseMatchesUnlabeled(t *testing.T) {
	var plain, labeled []Record
	tp := NewTable(Config{OnRecord: func(r Record, _ Handle) { plain = append(plain, r) }})
	tl := NewTable(Config{OnRecord: func(r Record, _ Handle) { labeled = append(labeled, r) }})
	var label uint32
	onNew := func(_ Key, _ time.Duration, _ bool, h Handle) { tl.Tag(h).Label = label }
	rng := rand.New(rand.NewPCG(3, 7))
	var at time.Duration
	for _, row := range classifyRows(t) {
		for range 20 {
			segs := segmentRow(rng, row, rng.IntN(4) == 0)
			at += time.Second
			plain = plain[:0]
			runSegments(tp, at, 40000, segs)
			want := plain[0]
			for _, l := range []string{want.HTTPHost, want.SNI, want.CertName, strings.ToLower(want.SNI), "other.example", ""} {
				label = tl.names.ID(strings.Clone(l)) // a string of its own, when first filed
				labeled = labeled[:0]
				runSegmentsOnNew(tl, at, 40000, segs, onNew)
				if len(labeled) != 1 || labeled[0] != want {
					t.Fatalf("%s, label %q: records %+v, unlabeled %+v", row.name, l, labeled, want)
				}
				got, ls := labeled[0], tl.names.Str(label)
				for _, name := range []string{got.HTTPHost, got.SNI, got.CertName} {
					if name != "" && name == ls && unsafe.StringData(name) != unsafe.StringData(ls) {
						t.Fatalf("%s: name %q equals the label but is another string", row.name, name)
					}
				}

			}
		}
	}
	forceSweep(tl.names)
	for id := range tl.names.End() {
		if n := tl.names.Str(id); n != "" {
			t.Fatalf("%q (ID %d) survives a sweep with every flow emitted", n, id)
		}
	}
}

// forceSweep files names nothing holds in nt until its Collect sweeps,
// which frees every name no holder keeps.
func forceSweep(nt *names.Table) {
	var buf []byte
	first := nt.Intern([]byte("sweep-junk-0"))
	for i := 1; nt.Str(first) != ""; i++ {
		buf = fmt.Appendf(buf[:0], "sweep-junk-%d", i)
		nt.Intern(buf)
		nt.Collect()
	}
}

// TestLiveFlowNamesSurviveSweep: a name table sweep while flows are live
// keeps every name they hold — label, SNI, certificate name — through the
// flow table's holder, and frees them once the flows end.
func TestLiveFlowNamesSurviveSweep(t *testing.T) {
	var recs []Record
	tbl := NewTable(Config{OnRecord: func(r Record, _ Handle) { recs = append(recs, r) }})
	label := tbl.names.ID("label.example")
	onNew := func(_ Key, _ time.Duration, _ bool, h Handle) { tbl.Tag(h).Label = label }
	tbl.Add(pkt(client, server, 40000, 443, layers.TCPSyn, nil), 0, onNew)
	tbl.Add(pkt(client, server, 40000, 443, layers.TCPAck|layers.TCPPsh, clientHello(t, "sni.example")), 1, nil)
	tbl.Add(pkt(server, client, 443, 40000, layers.TCPAck|layers.TCPPsh, serverFlight(t, "cert.example")), 2, nil)
	forceSweep(tbl.names)
	f := tbl.at(tbl.head)
	for id, want := range map[uint32]string{f.tag.Label: "label.example", f.sni: "sni.example", f.certName: "cert.example"} {
		if got := tbl.names.Str(id); got != want {
			t.Fatalf("after a sweep a live flow's ID %d spells %q, want %q", id, got, want)
		}
	}
	tbl.FlushAll()
	if len(recs) != 1 || recs[0].SNI != "sni.example" || recs[0].CertName != "cert.example" {
		t.Fatalf("records %+v", recs)
	}
	forceSweep(tbl.names)
	for id := range tbl.names.End() {
		if s := tbl.names.Str(id); s != "" {
			t.Fatalf("%q survives a sweep with no live flow", s)
		}
	}
}
