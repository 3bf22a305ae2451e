package resolver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

func ckClient(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}) }
func ckServer(i int) netip.Addr { return netip.AddrFrom4([4]byte{93, 184, byte(i >> 8), byte(i)}) }

// TestSnapshotRestoreRoundTrip: a restored resolver answers every lookup
// the original answered, with the same FQDN and Used flag.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	// The subtest name dates from when the resolver had several map kinds;
	// kind 0 is the hash-indexed map, the one that remains.
	t.Run("kind=0", func(t *testing.T) {
		r := New(Config{ClistSize: 64})
		for i := 0; i < 40; i++ {
			servers := []netip.Addr{ckServer(2 * i), ckServer(2*i + 1)}
			r.Insert(ckClient(i%8), fmt.Sprintf("host%d.example.com", i), servers, time.Duration(i)*time.Second)
		}
		// Mark a few entries used through the public lookup path.
		for i := 0; i < 10; i++ {
			if e, ok := r.LookupEntry(ckClient(i%8), ckServer(2*i)); ok {
				e.SetUsed()
			}
		}

		snap := r.Snapshot()
		r2 := New(Config{ClistSize: 64})
		r2.Restore(snap)
		if st := r2.Stats(); st.Responses != 0 || st.Lookups != 0 {
			t.Fatalf("restore polluted activity counters: %+v", st)
		}

		for i := 0; i < 40; i++ {
			for _, srv := range []netip.Addr{ckServer(2 * i), ckServer(2*i + 1)} {
				e1, ok1 := r.LookupEntry(ckClient(i%8), srv)
				e2, ok2 := r2.LookupEntry(ckClient(i%8), srv)
				if ok1 != ok2 {
					t.Fatalf("entry %d/%v: hit %v vs restored %v", i, srv, ok1, ok2)
				}
				if !ok1 {
					continue
				}
				if r.names.Str(e1.FQDN) != r2.names.Str(e2.FQDN) || e1.At != e2.At || e1.Used() != e2.Used() {
					t.Fatalf("entry %d/%v: (%q,%v,%v) vs restored (%q,%v,%v)",
						i, srv, r.names.Str(e1.FQDN), e1.At, e1.Used(), r2.names.Str(e2.FQDN), e2.At, e2.Used())
				}
			}
		}
	})
}

// TestSnapshotPreservesEvictionOrder: after restore, continued inserts
// evict the same entries the original resolver would have evicted.
func TestSnapshotPreservesEvictionOrder(t *testing.T) {
	const size = 16
	mkInsert := func(r *Resolver, i int) {
		r.Insert(ckClient(i), fmt.Sprintf("h%d.example.com", i), []netip.Addr{ckServer(i)}, time.Duration(i)*time.Second)
	}
	// Continuous run: 24 inserts through a 16-slot Clist.
	cont := New(Config{ClistSize: size})
	for i := 0; i < 24; i++ {
		mkInsert(cont, i)
	}
	// Split run: 20 inserts, checkpoint, restore, 4 more.
	first := New(Config{ClistSize: size})
	for i := 0; i < 20; i++ {
		mkInsert(first, i)
	}
	second := New(Config{ClistSize: size})
	second.Restore(first.Snapshot())
	for i := 20; i < 24; i++ {
		mkInsert(second, i)
	}
	for i := 0; i < 24; i++ {
		f1, ok1 := cont.Lookup(ckClient(i), ckServer(i))
		f2, ok2 := second.Lookup(ckClient(i), ckServer(i))
		if ok1 != ok2 || f1 != f2 {
			t.Fatalf("key %d: continuous (%q,%v) vs restored (%q,%v)", i, f1, ok1, f2, ok2)
		}
	}
}

// TestSnapshotSkipsDeadEntries: replaced entries (no refs left) are
// compacted out of the snapshot.
func TestSnapshotSkipsDeadEntries(t *testing.T) {
	r := New(Config{ClistSize: 8})
	r.Insert(ckClient(1), "old.example.com", []netip.Addr{ckServer(1)}, 0)
	r.Insert(ckClient(1), "new.example.com", []netip.Addr{ckServer(1)}, time.Second)
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot holds %d entries, want 1 (replaced entry compacted)", len(snap))
	}
	if snap[0].FQDN != "new.example.com" {
		t.Fatalf("snapshot kept %q", snap[0].FQDN)
	}
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	entries := []SnapshotEntry{
		{
			Client:  ckClient(1),
			Servers: []netip.Addr{ckServer(1), netip.MustParseAddr("2001:db8::1")},
			FQDN:    "cdn.example.com",
			At:      90 * time.Second,
			Used:    true,
		},
		{
			Client:  netip.MustParseAddr("2001:db8::99"),
			Servers: []netip.Addr{ckServer(7)},
			FQDN:    "v6.example.org",
			At:      3 * time.Hour,
		},
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("read %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		w, g := entries[i], got[i]
		if w.Client != g.Client || w.FQDN != g.FQDN || w.At != g.At || w.Used != g.Used || len(w.Servers) != len(g.Servers) {
			t.Fatalf("entry %d: %+v vs %+v", i, w, g)
		}
		for j := range w.Servers {
			if w.Servers[j] != g.Servers[j] {
				t.Fatalf("entry %d server %d: %v vs %v", i, j, w.Servers[j], g.Servers[j])
			}
		}
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot at all"))); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("garbage accepted: %v", err)
	}
	// Truncated valid stream must error, not hang or return partial data.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, []SnapshotEntry{{
		Client: ckClient(1), Servers: []netip.Addr{ckServer(1)}, FQDN: "x.example.com",
	}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadSnapshot(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// ckSnapshotBytes serializes a small snapshot for the corruption tests.
func ckSnapshotBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := WriteSnapshot(&buf, []SnapshotEntry{
		{Client: ckClient(1), Servers: []netip.Addr{ckServer(1)}, FQDN: "a.example.com", At: time.Second},
		{Client: ckClient(2), Servers: []netip.Addr{ckServer(2)}, FQDN: "b.example.com", At: 2 * time.Second, Used: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRejectsTruncation: any tail loss — even a single byte —
// fails the CRC with the corrupt sentinel, never a partial restore.
func TestSnapshotRejectsTruncation(t *testing.T) {
	data := ckSnapshotBytes(t)
	for _, cut := range []int{1, 4, 5, len(data) / 2} {
		if _, err := ReadSnapshot(bytes.NewReader(data[:len(data)-cut])); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("cut %d bytes: got %v, want ErrSnapshotCorrupt", cut, err)
		}
	}
}

// TestSnapshotRejectsBitFlips: a flipped bit anywhere in the body or
// trailer is caught by the checksum.
func TestSnapshotRejectsBitFlips(t *testing.T) {
	data := ckSnapshotBytes(t)
	// Flip one bit in every byte past the magic+version header (flips in
	// the magic prefix yield ErrBadSnapshot, and a version-byte flip
	// ErrSnapshotVersion — both still rejected, tested elsewhere).
	for off := len(snapshotMagicPrefix) + 1; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 1 << (off % 8)
		if _, err := ReadSnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("flip at byte %d: got %v, want ErrSnapshotCorrupt", off, err)
		}
	}
}

// TestSnapshotRejectsFutureVersion: a file stamped by a newer release is
// refused with the version sentinel, not misparsed.
func TestSnapshotRejectsFutureVersion(t *testing.T) {
	data := ckSnapshotBytes(t)
	mut := append([]byte(nil), data...)
	mut[len(snapshotMagicPrefix)] = snapshotVersion + 1
	if _, err := ReadSnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future version accepted: %v", err)
	}
}

// TestSnapshotReadsLegacyV1: a trailer-less version-1 file (what earlier
// releases wrote) still restores.
func TestSnapshotReadsLegacyV1(t *testing.T) {
	data := ckSnapshotBytes(t)
	// v2 layout: magic(8) | ver(1) | body | trailer ver(1) | crc(4).
	body := data[len(snapshotMagicPrefix)+1 : len(data)-snapshotTrailerLen]
	v1 := append([]byte(snapshotMagicPrefix+"\x01"), body...)
	got, err := ReadSnapshot(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("legacy v1 snapshot rejected: %v", err)
	}
	if len(got) != 2 || got[0].FQDN != "a.example.com" || !got[1].Used {
		t.Fatalf("legacy v1 entries mangled: %+v", got)
	}
}

// TestSnapshotGoldenBytes pins the version-2 wire bytes: v4, v6 and
// 4-in-6 addresses, a multi-byte At, the Used flag and an entry with no
// servers. A change to how WriteSnapshot encodes must leave this file
// format unchanged.
func TestSnapshotGoldenBytes(t *testing.T) {
	const golden = "444e48434c49535402030f63646e2e6578616d706c652e636f6d8088aca3cf0201040a00000102045db80001" +
		"1020010db80000000000000000000000010e76362e6578616d706c652e6f726780c0a791a9ba02001020010db8" +
		"000000000000000000000099011000000000000000000000ffffc0000207106e6f6e652e6578616d706c652e6e" +
		"65740000040a00012c00022fb283a8"
	entries := []SnapshotEntry{
		{
			Client:  ckClient(1),
			Servers: []netip.Addr{ckServer(1), netip.MustParseAddr("2001:db8::1")},
			FQDN:    "cdn.example.com",
			At:      90 * time.Second,
			Used:    true,
		},
		{
			Client:  netip.MustParseAddr("2001:db8::99"),
			Servers: []netip.Addr{netip.MustParseAddr("::ffff:192.0.2.7")},
			FQDN:    "v6.example.org",
			At:      3 * time.Hour,
		},
		{Client: ckClient(300), FQDN: "none.example.net"},
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("snapshot bytes changed:\n got %s\nwant %s", got, golden)
	}
}

// TestSnapshotWriteAllocsConstant: taking and writing a checkpoint costs
// the same allocations at 10 entries as at 1000 — no per-entry Servers
// slice, no per-address MarshalBinary.
func TestSnapshotWriteAllocsConstant(t *testing.T) {
	fill := func(n int) *Resolver {
		r := New(Config{ClistSize: 4096})
		for i := 0; i < n; i++ {
			servers := []netip.Addr{ckServer(2 * i), ckServer(2*i + 1), netip.MustParseAddr("2001:db8::1")}
			r.Insert(ckClient(i), fmt.Sprintf("h%d.example.com", i), servers, time.Duration(i)*time.Second)
		}
		return r
	}
	small, large := fill(10), fill(1000)
	snapAllocs := func(r *Resolver) float64 {
		return testing.AllocsPerRun(10, func() { _ = r.Snapshot() })
	}
	if s, l := snapAllocs(small), snapAllocs(large); s != l {
		t.Errorf("Snapshot allocates %v times for 10 entries, %v for 1000", s, l)
	}
	writeAllocs := func(entries []SnapshotEntry) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := WriteSnapshot(io.Discard, entries); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := writeAllocs(small.Snapshot()), writeAllocs(large.Snapshot()); s != l {
		t.Errorf("WriteSnapshot allocates %v times for 10 entries, %v for 1000", s, l)
	}
	// Merging one snapshot per shard copies nothing either.
	mergeAllocs := func(entries []SnapshotEntry) float64 {
		a, b := len(entries)/3, 2*len(entries)/3
		return testing.AllocsPerRun(10, func() {
			if err := WriteSnapshot(io.Discard, entries[:a], entries[a:b], entries[b:]); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := mergeAllocs(small.Snapshot()), mergeAllocs(large.Snapshot()); s != l {
		t.Errorf("a three-part WriteSnapshot allocates %v times for 10 entries, %v for 1000", s, l)
	}
}

// snapshotBody strips a version-2 file to the entry framing between the
// magic and the trailer.
func snapshotBody(data []byte) []byte {
	return data[len(snapshotMagicPrefix)+1 : len(data)-snapshotTrailerLen]
}

// TestSnapshotReadAllocsPerName: parsing a checkpoint allocates per
// distinct name, not per entry. 1,000 entries over 10 names cost what 10
// entries over the same names cost: the entries, one shared server array
// and one string per name, shared by its entries.
func TestSnapshotReadAllocsPerName(t *testing.T) {
	body := func(n int) []byte {
		entries := make([]SnapshotEntry, n)
		for i := range entries {
			entries[i] = SnapshotEntry{
				Client:  ckClient(i),
				Servers: []netip.Addr{ckServer(i), netip.MustParseAddr("2001:db8::1")},
				FQDN:    fmt.Sprintf("h%d.example.com", i%10),
				At:      time.Duration(i) * time.Second,
			}
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, entries); err != nil {
			t.Fatal(err)
		}
		return snapshotBody(buf.Bytes())
	}
	readAllocs := func(b []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := readSnapshotBody(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := readAllocs(body(10)), readAllocs(body(1000)); s != l {
		t.Errorf("reading allocates %v times for 10 entries, %v for 1000 over the same 10 names", s, l)
	}
}

// TestWriteSnapshotMergesParts: WriteSnapshot merges its parts by At,
// ties going to the lower part, so each part's order survives even where
// its clock steps back; on time-ordered parts that is the stable sort of
// their concatenation. The parts are left as they were.
func TestWriteSnapshotMergesParts(t *testing.T) {
	part := func(client int, ats ...time.Duration) []SnapshotEntry {
		p := make([]SnapshotEntry, len(ats))
		for i, at := range ats {
			p[i] = SnapshotEntry{Client: ckClient(client), Servers: []netip.Addr{ckServer(i)}, FQDN: fmt.Sprintf("c%d-%d.example.com", client, i), At: at}
		}
		return p
	}
	read := func(parts ...[]SnapshotEntry) []SnapshotEntry {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, parts...); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	ordered := [][]SnapshotEntry{part(0, 1, 3, 3, 7), part(1, 0, 3, 8), nil, part(3, 3, 4)}
	var stable []SnapshotEntry
	for _, p := range ordered {
		stable = append(stable, p...)
	}
	sort.SliceStable(stable, func(i, j int) bool { return stable[i].At < stable[j].At })
	if got := read(ordered...); !reflect.DeepEqual(got, stable) {
		t.Fatalf("time-ordered parts:\n got  %v\n want %v", got, stable)
	}

	// Part 0's clock steps back at its third entry.
	stepped := [][]SnapshotEntry{part(0, 5, 6, 2, 9), part(1, 1, 4, 7)}
	saved := make([][]SnapshotEntry, len(stepped))
	for i, p := range stepped {
		saved[i] = slices.Clone(p)
	}
	got := read(stepped...)
	for i, p := range stepped {
		var mine []SnapshotEntry
		for _, se := range got {
			if se.Client == ckClient(i) {
				mine = append(mine, se)
			}
		}
		if !reflect.DeepEqual(mine, p) {
			t.Errorf("part %d reordered:\n got  %v\n want %v", i, mine, p)
		}
	}
	if !reflect.DeepEqual(stepped, saved) {
		t.Errorf("WriteSnapshot modified its parts")
	}
}

// TestSnapshotOverTombstones checkpoints a wrapped Clist whose slots are
// mostly tombstones: few clients re-resolving few names re-point their keys
// over and over, so most entries are freed before their slot comes round.
// Its Snapshot must be the reference model's FIFO snapshot, and after a
// WriteSnapshot/ReadSnapshot/Restore round trip the restored resolver must
// answer every lookup exactly as the original does.
func TestSnapshotOverTombstones(t *testing.T) {
	// At most 2×4 keys name an entry at once, so most of the 64 slots must
	// be tombstones.
	const L, clients, servers = 64, 2, 4
	// The subtest name records the configuration the test has always run:
	// a bare Clist with no history cells behind it.
	t.Run("history=0", func(t *testing.T) {
		cfg := Config{ClistSize: L}
		r, o := New(cfg), newOrderedRef(cfg)
		rng := rand.New(rand.NewPCG(7, 0))
		for i := 0; i < 20*L; i++ {
			srv := []netip.Addr{ckServer(rng.IntN(servers))}
			if rng.IntN(3) == 0 {
				srv = append(srv, ckServer(rng.IntN(servers)))
			}
			cl, fq, at := ckClient(rng.IntN(clients)), fmt.Sprintf("h%d.example.com", rng.IntN(5)), time.Duration(i)*time.Second
			r.Insert(cl, fq, srv, at)
			o.Insert(cl, fq, srv, at)
		}
		tombs := 0
		for _, s := range r.clist {
			if s == noSlot {
				tombs++
			}
		}
		if st := r.Stats(); st.Evictions == 0 || st.EntriesAlive != L || tombs < L/2 {
			t.Fatalf("want a wrapped Clist of %d slots, half of them tombstones: %+v, %d tombstones", L, st, tombs)
		}
		snap := r.Snapshot()
		if want := o.snapshot(); !reflect.DeepEqual(snap, want) {
			t.Fatalf("snapshot diverges from the model's FIFO:\n got  %v\n want %v", snap, want)
		}

		// Mark every other key used, so the round trip carries Used too.
		for c := range clients {
			for s := 0; s < servers; s += 2 {
				if e, ok := r.LookupEntry(ckClient(c), ckServer(s)); ok {
					e.SetUsed()
				}
			}
		}
		snap = r.Snapshot()
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		read, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		r2 := New(cfg)
		r2.Restore(read)
		if got := r2.Snapshot(); !reflect.DeepEqual(got, snap) {
			t.Fatalf("restored snapshot differs:\n got  %v\n want %v", got, snap)
		}
		for c := range clients {
			for s := range servers {
				e1, ok1 := r.LookupEntry(ckClient(c), ckServer(s))
				e2, ok2 := r2.LookupEntry(ckClient(c), ckServer(s))
				if ok1 && e1.pos == noSlot {
					t.Fatalf("key %d/%d: current entry %q is off the Clist", c, s, r.names.Str(e1.FQDN))
				}
				if ok1 != ok2 {
					t.Fatalf("key %d/%d: hit %v vs restored %v", c, s, ok1, ok2)
				}
				if ok1 && (r.names.Str(e1.FQDN) != r2.names.Str(e2.FQDN) || e1.At != e2.At || e1.Used() != e2.Used()) {
					t.Fatalf("key %d/%d: (%q,%v,%v) vs restored (%q,%v,%v)", c, s, r.names.Str(e1.FQDN), e1.At, e1.Used(), r2.names.Str(e2.FQDN), e2.At, e2.Used())
				}
			}
		}
	})
}

// readSnapshotBodyRef is the body parser as first written, through a
// bufio.Reader with a fresh allocation per FQDN and per Servers slice:
// the oracle FuzzReadSnapshot holds the in-place parser to.
func readSnapshotBodyRef(br *bufio.Reader) ([]SnapshotEntry, error) {
	readAddr := func() (netip.Addr, error) {
		n, err := br.ReadByte()
		if err != nil {
			return netip.Addr{}, err
		}
		if n != 4 && n != 16 {
			return netip.Addr{}, fmt.Errorf("address length %d", n)
		}
		var buf [16]byte
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			return netip.Addr{}, err
		}
		var a netip.Addr
		if err := a.UnmarshalBinary(buf[:n]); err != nil {
			return netip.Addr{}, err
		}
		return a, nil
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("resolver: snapshot count: %w", err)
	}
	// Cap the preallocation; a lying header still costs only appends.
	entries := make([]SnapshotEntry, 0, min(count, 1<<16))
	for i := uint64(0); i < count; i++ {
		var se SnapshotEntry
		flen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("resolver: snapshot entry %d: %w", i, err)
		}
		if flen > snapshotMaxFQDN {
			return nil, fmt.Errorf("resolver: snapshot entry %d: FQDN length %d", i, flen)
		}
		fqdn := make([]byte, flen)
		if _, err := io.ReadFull(br, fqdn); err != nil {
			return nil, fmt.Errorf("resolver: snapshot entry %d: %w", i, err)
		}
		se.FQDN = string(fqdn)
		at, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("resolver: snapshot entry %d: %w", i, err)
		}
		se.At = time.Duration(at)
		used, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("resolver: snapshot entry %d: %w", i, err)
		}
		se.Used = used != 0
		if se.Client, err = readAddr(); err != nil {
			return nil, fmt.Errorf("resolver: snapshot entry %d: client: %w", i, err)
		}
		nsrv, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("resolver: snapshot entry %d: %w", i, err)
		}
		if nsrv > snapshotMaxServers {
			return nil, fmt.Errorf("resolver: snapshot entry %d: %d servers", i, nsrv)
		}
		se.Servers = make([]netip.Addr, nsrv)
		for j := range se.Servers {
			if se.Servers[j], err = readAddr(); err != nil {
				return nil, fmt.Errorf("resolver: snapshot entry %d: server %d: %w", i, j, err)
			}
		}
		entries = append(entries, se)
	}
	return entries, nil
}

// FuzzReadSnapshot: for any entry framing, wrapped in a valid magic and
// CRC trailer so the checksum does not reject it first, ReadSnapshot
// returns what the bufio oracle returns, or fails where the oracle fails
// with the same error. A version-1 wrapping of the same bytes reads the
// same. Whatever it accepts round-trips through WriteSnapshot unchanged.
func FuzzReadSnapshot(f *testing.F) {
	// TestSnapshotGoldenBytes' file.
	golden, err := hex.DecodeString("444e48434c49535402030f63646e2e6578616d706c652e636f6d8088aca3cf0201040a00000102045db80001" +
		"1020010db80000000000000000000000010e76362e6578616d706c652e6f726780c0a791a9ba02001020010db8" +
		"000000000000000000000099011000000000000000000000ffffc0000207106e6f6e652e6578616d706c652e6e" +
		"65740000040a00012c00022fb283a8")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshotBody(golden))
	// The body TestSnapshotReadsLegacyV1 reads, and the cuts
	// TestSnapshotRejectsTruncation makes of it.
	body := snapshotBody(ckSnapshotBytes(f))
	f.Add(body)
	for _, cut := range []int{1, 4, 5, len(body) / 2} {
		f.Add(body[:len(body)-cut])
	}
	sentinels := []error{ErrBadSnapshot, ErrSnapshotCorrupt, ErrSnapshotVersion, io.EOF, io.ErrUnexpectedEOF}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := readSnapshotBodyRef(bufio.NewReader(bytes.NewReader(body)))
		v2 := append([]byte(snapshotMagicPrefix+"\x02"), body...)
		v2 = append(v2, snapshotVersion)
		v2 = binary.LittleEndian.AppendUint32(v2, crc32.ChecksumIEEE(v2))
		v1 := append([]byte(snapshotMagicPrefix+"\x01"), body...)
		for _, data := range [][]byte{v2, v1} {
			got, err := ReadSnapshot(bytes.NewReader(data))
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("version %d: error %v, oracle %v", data[len(snapshotMagicPrefix)], err, wantErr)
			}
			for _, s := range sentinels {
				if errors.Is(err, s) != errors.Is(wantErr, s) {
					t.Fatalf("version %d: error %v, oracle %v: they differ on %v", data[len(snapshotMagicPrefix)], err, wantErr, s)
				}
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("version %d: read\n %v\noracle\n %v", data[len(snapshotMagicPrefix)], got, want)
			}
		}
		if wantErr != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, want); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("round trip changed the entries:\n got  %v\n want %v", again, want)
		}
	})
}
