package orgdb

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func mustDB(t *testing.T, rows ...string) *DB {
	t.Helper()
	var entries []Entry
	for _, row := range rows {
		fields := strings.Fields(row)
		entries = append(entries, Entry{Prefix: netip.MustParsePrefix(fields[0]), Org: fields[1]})
	}
	return New(entries)
}

func TestLookupBasic(t *testing.T) {
	db := mustDB(t,
		"23.0.0.0/12 akamai",
		"54.224.0.0/12 amazon",
		"173.194.0.0/16 google",
	)
	cases := []struct {
		addr string
		org  string
		ok   bool
	}{
		{"23.1.2.3", "akamai", true},
		{"54.230.1.1", "amazon", true},
		{"173.194.44.10", "google", true},
		{"8.8.8.8", "", false},
	}
	for _, tc := range cases {
		org, ok := db.Lookup(netip.MustParseAddr(tc.addr))
		if ok != tc.ok || org != tc.org {
			t.Errorf("Lookup(%s) = %q, %v; want %q, %v", tc.addr, org, ok, tc.org, tc.ok)
		}
	}
}

func TestLongestPrefixWins(t *testing.T) {
	db := mustDB(t,
		"10.0.0.0/8 carrier",
		"10.20.0.0/16 cdn",
		"10.20.30.0/24 tenant",
	)
	cases := map[string]string{
		"10.1.1.1":    "carrier",
		"10.20.1.1":   "cdn",
		"10.20.30.40": "tenant",
	}
	for addr, want := range cases {
		org, ok := db.Lookup(netip.MustParseAddr(addr))
		if !ok || org != want {
			t.Errorf("Lookup(%s) = %q, %v; want %q", addr, org, ok, want)
		}
	}
}

func TestIPv6Lookup(t *testing.T) {
	db := mustDB(t, "2001:db8::/32 testnet", "10.0.0.0/8 carrier")
	org, ok := db.Lookup(netip.MustParseAddr("2001:db8::1234"))
	if !ok || org != "testnet" {
		t.Fatalf("got %q, %v", org, ok)
	}
	if _, ok := db.Lookup(netip.MustParseAddr("2002::1")); ok {
		t.Fatal("unexpected v6 match")
	}
}

func TestFamilySeparation(t *testing.T) {
	db := mustDB(t, "0.0.0.0/8 zero")
	if _, ok := db.Lookup(netip.MustParseAddr("::1")); ok {
		t.Fatal("v6 address matched a v4 prefix")
	}
}

func TestDuplicatePrefixCollapses(t *testing.T) {
	db := New([]Entry{
		{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Org: "first"},
		{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Org: "second"},
	})
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
	org, _ := db.Lookup(netip.MustParseAddr("10.1.1.1"))
	if org != "first" {
		t.Fatalf("org = %q", org)
	}
}

func TestPrefixNormalization(t *testing.T) {
	db := New([]Entry{{Prefix: netip.MustParsePrefix("10.55.66.77/8"), Org: "x"}})
	if org, ok := db.Lookup(netip.MustParseAddr("10.0.0.1")); !ok || org != "x" {
		t.Fatalf("unmasked prefix broke lookup: %q %v", org, ok)
	}
}

func TestTextRoundTrip(t *testing.T) {
	db := mustDB(t, "23.0.0.0/12 akamai", "54.224.0.0/12 amazon")
	var buf bytes.Buffer
	if err := db.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), db.Len())
	}
	org, ok := got.Lookup(netip.MustParseAddr("23.1.1.1"))
	if !ok || org != "akamai" {
		t.Fatalf("lookup after round trip: %q %v", org, ok)
	}
}

func TestReadTextCommentsAndSpaces(t *testing.T) {
	in := "# comment\n\n10.0.0.0/8 my org name\n"
	db, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	org, ok := db.Lookup(netip.MustParseAddr("10.2.3.4"))
	if !ok || org != "my org name" {
		t.Fatalf("got %q %v", org, ok)
	}
}

func TestReadTextErrors(t *testing.T) {
	for _, in := range []string{"justoneword\n", "notaprefix org\n"} {
		if _, err := ReadText(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("input %q: err = %v", in, err)
		}
	}
}

func TestEmptyDB(t *testing.T) {
	db := New(nil)
	if _, ok := db.Lookup(netip.MustParseAddr("1.2.3.4")); ok {
		t.Fatal("empty DB matched")
	}
	if db.Len() != 0 {
		t.Fatal("empty DB not empty")
	}
}

func TestQuickLookupConsistentWithLinearScan(t *testing.T) {
	// Property: Lookup agrees with a brute-force longest-prefix scan.
	prefixes := []Entry{
		{netip.MustParsePrefix("10.0.0.0/8"), "a"},
		{netip.MustParsePrefix("10.128.0.0/9"), "b"},
		{netip.MustParsePrefix("10.128.64.0/18"), "c"},
		{netip.MustParsePrefix("192.168.0.0/16"), "d"},
		{netip.MustParsePrefix("192.168.7.0/24"), "e"},
	}
	db := New(prefixes)
	f := func(b1, b2, b3, b4 uint8) bool {
		addr := netip.AddrFrom4([4]byte{b1, b2, b3, b4})
		wantOrg, wantOK := "", false
		bestBits := -1
		for _, e := range prefixes {
			if e.Prefix.Contains(addr) && e.Prefix.Bits() > bestBits {
				bestBits = e.Prefix.Bits()
				wantOrg, wantOK = e.Org, true
			}
		}
		org, ok := db.Lookup(addr)
		return org == wantOrg && ok == wantOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	var entries []Entry
	for i := 0; i < 256; i++ {
		entries = append(entries, Entry{
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(i), 0, 0, 0}), 12),
			Org:    "org",
		})
	}
	db := New(entries)
	addr := netip.MustParseAddr("100.1.2.3")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Lookup(addr)
	}
}

// Len returns the number of prefixes.
func (db *DB) Len() int { return len(db.entries) }
