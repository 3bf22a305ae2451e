package flowdb

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flows"
)

func TestCSVRoundTrip(t *testing.T) {
	db := New()
	f1 := lf("www.example.com", "1.1.1.1", 443, flows.L7TLS, time.Second)
	f1.PreFlow = true
	f1.DNSDelay = 250 * time.Millisecond
	f1.FirstAfterDNS = true
	f1.BytesC2S, f1.BytesS2C = 1000, 2000
	f1.PktsC2S, f1.PktsS2C = 5, 7
	f1.SNI = "www.example.com"
	f1.CertName, f1.HasCert = "*.example.com", true
	f1.Truth = "www.example.com"
	db.Add(f1)
	db.Add(lf("", "9.9.9.9", 6881, flows.L7P2P, 2*time.Second))

	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("Len = %d", got.Len())
	}
	g := got.At(0)
	if g.Label != "www.example.com" || !g.Labeled || !g.PreFlow ||
		g.DNSDelay != 250*time.Millisecond || !g.FirstAfterDNS {
		t.Fatalf("flow 0 = %+v", g)
	}
	if g.Key != f1.Key || g.L7 != flows.L7TLS {
		t.Fatalf("key/l7 = %v %v", g.Key, g.L7)
	}
	if g.BytesC2S != 1000 || g.PktsS2C != 7 {
		t.Fatalf("counters = %+v", g)
	}
	if g.SNI != "www.example.com" || !g.HasCert || g.CertName != "*.example.com" {
		t.Fatalf("tls fields = %+v", g)
	}
	if g.Truth != "www.example.com" {
		t.Fatalf("truth = %q", g.Truth)
	}
	// Unlabeled flow stays unlabeled; SLDs are derived again on read.
	if got.At(1).Labeled || got.At(1).SLD != "" {
		t.Fatalf("flow 1 = %+v, want unlabeled with no SLD", got.At(1))
	}
	if g.SLD != "example.com" {
		t.Fatalf("flow 0 SLD = %q", g.SLD)
	}
}

func TestReadCSVBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Fatal("expected error")
	}
}

func TestReadCSVBadRow(t *testing.T) {
	var buf bytes.Buffer
	db := New()
	db.Add(lf("a.x.com", "1.1.1.1", 80, flows.L7HTTP, 0))
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	broken := strings.Replace(buf.String(), "1.1.1.1", "not-an-ip", 1)
	if _, err := ReadCSV(strings.NewReader(broken)); err == nil {
		t.Fatal("expected error for bad address")
	}
}

// TestReadCSVRejectsOutOfRange: a number that does not fit its field fails
// the load, naming the line, instead of wrapping into a valid-looking flow.
func TestReadCSVRejectsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	db := New()
	db.Add(lf("a.x.com", "1.1.1.1", 80, flows.L7HTTP, 0))
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, row, _ := strings.Cut(buf.String(), "\n")
	for _, tc := range []struct {
		name  string
		col   int
		value string
	}{
		{"negative port", 4, "-1"},
		{"port past 65535", 5, "70000"},
		{"proto past 255", 6, "300"},
		{"start_ms past 2^63 ns", 0, "9223372036855"},
		{"dns_delay_ms below -2^63 ns", 11, "-9223372036855"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fields := strings.Split(strings.TrimSuffix(row, "\n"), ",")
			fields[tc.col] = tc.value
			in := header + "\n" + strings.Join(fields, ",") + "\n"
			_, err := ReadCSV(strings.NewReader(in))
			if err == nil || !strings.Contains(err.Error(), "line 2") {
				t.Fatalf("%s = %s: err %v, want an error naming line 2", csvHeader[tc.col], tc.value, err)
			}
		})
	}
	// The largest millisecond values a duration holds still load.
	fields := strings.Split(strings.TrimSuffix(row, "\n"), ",")
	fields[0], fields[1] = "9223372036854", "-9223372036854"
	got, err := ReadCSV(strings.NewReader(header + "\n" + strings.Join(fields, ",") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f := got.At(0); f.Start != 9223372036854*time.Millisecond || f.End != -9223372036854*time.Millisecond {
		t.Fatalf("extreme milliseconds load as %v, %v", f.Start, f.End)
	}
}

func TestReadCSVEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := ReadCSV(&buf)
	if err != nil || db.Len() != 0 {
		t.Fatalf("got %v %v", db.Len(), err)
	}
}

func TestCSVVantageRoundTrip(t *testing.T) {
	db := New()
	f := lf("www.example.com", "1.1.1.1", 443, flows.L7TLS, time.Second)
	f.Vantage = "EU1"
	db.Add(f)
	db.Add(lf("cdn.example.com", "2.2.2.2", 80, flows.L7HTTP, 2*time.Second)) // no vantage

	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0).Vantage != "EU1" || got.At(1).Vantage != "" {
		t.Fatalf("vantages = %q %q", got.At(0).Vantage, got.At(1).Vantage)
	}
}

// TestReadCSVLegacyHeader: files written before the vantage column was
// added (20 columns) still load, with empty vantage labels.
func TestReadCSVLegacyHeader(t *testing.T) {
	db := New()
	db.Add(lf("www.example.com", "1.1.1.1", 443, flows.L7TLS, time.Second))
	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Strip the trailing vantage column from header and rows (the flow has
	// no vantage, so every line just ends with one extra separator/name).
	var legacy strings.Builder
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		line = strings.TrimSuffix(line, ",vantage")
		line = strings.TrimSuffix(line, ",")
		legacy.WriteString(line)
		legacy.WriteByte('\n')
	}
	got, err := ReadCSV(strings.NewReader(legacy.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.At(0).Vantage != "" {
		t.Fatalf("legacy load = %d flows, vantage %q", got.Len(), got.At(0).Vantage)
	}
}

// csvReference is WriteCSV written plainly with encoding/csv, one []string
// per record: the byte-for-byte contract the appending encoder keeps.
func csvReference(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(csvHeader); err != nil {
		t.Fatal(err)
	}
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	for i := range db.Len() {
		f := db.At(i)
		if err := cw.Write([]string{
			strconv.FormatInt(f.Start.Milliseconds(), 10),
			strconv.FormatInt(f.End.Milliseconds(), 10),
			f.Key.ClientIP.String(),
			f.Key.ServerIP.String(),
			strconv.Itoa(int(f.Key.ClientPort)),
			strconv.Itoa(int(f.Key.ServerPort)),
			strconv.Itoa(int(f.Key.Proto)),
			f.L7.String(),
			f.Label,
			b(f.Labeled),
			b(f.PreFlow),
			strconv.FormatInt(f.DNSDelay.Milliseconds(), 10),
			b(f.FirstAfterDNS),
			strconv.FormatUint(f.PktsC2S, 10),
			strconv.FormatUint(f.PktsS2C, 10),
			strconv.FormatUint(f.BytesC2S, 10),
			strconv.FormatUint(f.BytesS2C, 10),
			f.SNI,
			f.CertName,
			f.Truth,
			f.Vantage,
		}); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// csvFieldCases are strings on and around every edge of encoding/csv's
// quoting rule.
var csvFieldCases = []string{
	"", "plain.example.com", `\.`, `\..`, `.\`, " lead", "trail ", "\tlead",
	" nbsp", " sep", "\u0085nel", "\xffbad-utf8", "\xe2\x80",
	"a,b", `say "hi"`, `"`, `""`, "cr\r", "lf\nx", "\r\n", "mid space",
	"ünïcödé.example", "x\x00y",
}

// checkCSVMatches writes one flow per field case and asserts WriteCSV's
// bytes equal encoding/csv's.
func checkCSVMatches(t *testing.T, db *DB) {
	t.Helper()
	var got bytes.Buffer
	if err := db.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if want := csvReference(t, db); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteCSV bytes differ from encoding/csv:\n got %q\nwant %q", got.Bytes(), want)
	}
}

// TestWriteCSVMatchesEncodingCSV: every string field, and addresses of
// every form netip prints (v4, v6, 4-in-6, zoned, the zero Addr), encode
// exactly as encoding/csv.Writer encodes them.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	db := New()
	for _, s := range csvFieldCases {
		f := lf(s, "1.1.1.1", 443, flows.L7TLS, time.Second)
		f.Labeled = true
		f.SNI, f.Truth, f.Vantage = s, s, s
		f.CertName, f.HasCert = s, true
		db.Add(f)
	}
	for _, a := range []string{"2001:db8::1", "::ffff:192.0.2.1", "fe80::1%eth0", "fe80::1%a,\"b", "fe80::1% z"} {
		f := lf("", a, 80, flows.L7HTTP, -time.Second)
		f.Key.ClientIP = netip.MustParseAddr(a)
		f.DNSDelay, f.PktsC2S, f.BytesS2C = -1500*time.Millisecond, 1<<63, ^uint64(0)
		db.Add(f)
	}
	db.Add(LabeledFlow{}) // zero addresses print as "invalid IP"
	checkCSVMatches(t, db)
}

// FuzzWriteCSVMatchesEncodingCSV: for arbitrary label, SNI, certificate,
// truth and vantage strings, WriteCSV's bytes equal encoding/csv's.
func FuzzWriteCSVMatchesEncodingCSV(f *testing.F) {
	for i, s := range csvFieldCases {
		f.Add(s, csvFieldCases[(i+1)%len(csvFieldCases)], csvFieldCases[(i+5)%len(csvFieldCases)], s, csvFieldCases[(i+9)%len(csvFieldCases)])
	}
	f.Fuzz(func(t *testing.T, label, sni, cert, truth, vantage string) {
		fl := lf(label, "192.0.2.1", 443, flows.L7TLS, time.Second)
		fl.Labeled = true
		fl.SNI, fl.Truth, fl.Vantage = sni, truth, vantage
		fl.CertName, fl.HasCert = cert, true
		db := New()
		db.Add(fl)
		checkCSVMatches(t, db)
	})
}

// TestWriteCSVAllocsPerRecord: a warm row encoder allocates nothing, even
// for fields it must quote, and WriteCSV's allocations do not grow with
// the record count.
func TestWriteCSVAllocsPerRecord(t *testing.T) {
	f := lf("www.example.com", "2001:db8::1", 443, flows.L7TLS, time.Second)
	f.SNI, f.Truth, f.Vantage = `quoted "sni", here`, " lead", "EU1"
	f.CertName, f.HasCert = "*.example.com", true
	b := appendCSVRow(nil, &f)
	if n := testing.AllocsPerRun(1000, func() { b = appendCSVRow(b[:0], &f) }); n != 0 {
		t.Fatalf("warm row encoder allocates %v per record, want 0", n)
	}
	write := func(db *DB) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := db.WriteCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := New(), New()
	small.Add(f)
	for i := range 10000 { // distinct names, so rows span the name table
		f.Label, f.Truth = fmt.Sprintf("h%d.example.com", i), fmt.Sprintf("t%d", i%97)
		large.Add(f)
	}
	if s, l := write(small), write(large); l != s {
		t.Fatalf("WriteCSV allocates %v times for 1 record, %v for %d", s, l, large.Len())
	}
}

// TestWriteCSVWarmAllocFree: once the row buffer pool is warm, writing a
// window's CSV allocates nothing at all.
func TestWriteCSVWarmAllocFree(t *testing.T) {
	db := New()
	for i := range 1000 {
		f := lf(fmt.Sprintf("h%d.example.com", i%50), "192.0.2.1", 443, flows.L7TLS, time.Duration(i)*time.Second)
		f.SNI, f.Labeled = f.Label, true
		db.Add(f)
	}
	write := func() {
		if err := db.WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if n := testing.AllocsPerRun(20, write); n != 0 {
		t.Fatalf("warm WriteCSV allocates %v times, want 0", n)
	}
}

// TestWriteCSVConcurrent: writers sharing one DB each get their own
// pooled buffer, so four at once all produce the reference bytes. Run
// under -race it also checks they share nothing mutable.
func TestWriteCSVConcurrent(t *testing.T) {
	db := New()
	for i := range 2000 { // several flushes' worth of rows per write
		f := lf(fmt.Sprintf("h%d.example.com", i), "2001:db8::1", 443, flows.L7TLS, time.Duration(i)*time.Millisecond)
		f.SNI, f.Truth, f.Vantage = `quoted "sni", here`, f.Label, "EU1"
		db.Add(f)
	}
	want := csvReference(t, db)
	var wg sync.WaitGroup
	got := make([]bytes.Buffer, 4)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = db.WriteCSV(&got[i])
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i].Bytes(), want) {
			t.Fatalf("writer %d wrote %d bytes that differ from the reference's %d", i, got[i].Len(), len(want))
		}
	}
}
