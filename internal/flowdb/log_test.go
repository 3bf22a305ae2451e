package flowdb

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/flows"
)

// logSizes straddle the chunk boundary.
var logSizes = []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1}

// logFlow is the i-th flow of the log tests; the fields the analytics
// scans, Coverage and WriteCSV read all vary with i.
func logFlow(i int) LabeledFlow {
	label := ""
	if i%3 != 0 {
		label = fmt.Sprintf("h%d.s%d.example", i%7, i%5)
	}
	l7 := []flows.L7Proto{flows.L7HTTP, flows.L7TLS, flows.L7P2P}[i%3]
	server := netip.AddrFrom4([4]byte{198, 51, byte((i >> 8) % 4), byte(i)})
	f := lf(label, server.String(), uint16(80+i%4), l7, time.Duration(i)*time.Millisecond)
	f.Truth = label
	return f
}

// logDB holds logFlow(lo) .. logFlow(lo+n-1).
func logDB(lo, n int) *DB {
	db := New()
	for i := lo; i < lo+n; i++ {
		db.Add(logFlow(i))
	}
	return db
}

// checkLog asserts db holds exactly logFlow(0) .. logFlow(n-1), in order,
// in full chunks except the last.
func checkLog(t *testing.T, db *DB, n int) {
	t.Helper()
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
	if need := (n + chunkLen - 1) / chunkLen; len(db.chunks) < need {
		t.Fatalf("%d flows need %d chunks, the log has %d", n, need, len(db.chunks))
	}
	for i := 0; i < n; i++ {
		want := logFlow(i)
		if want.Labeled {
			want.SLD = fmt.Sprintf("s%d.example", i%5)
		}
		if got := db.At(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
}

// TestLogAtAndQueries: At, Coverage, All and WriteCSV agree with a linear
// scan of the same flows at sizes around chunkLen.
func TestLogAtAndQueries(t *testing.T) {
	for _, n := range logSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			db := logDB(0, n)
			checkLog(t, db, n)

			cov := LabelCoverage{Total: map[flows.L7Proto]int{}, Labeled: map[flows.L7Proto]int{}}
			warmup := time.Duration(n/2) * time.Millisecond
			for i := 0; i < n; i++ {
				f := db.At(i)
				if f.Start >= warmup {
					cov.Total[f.L7]++
					if f.Labeled {
						cov.Labeled[f.L7]++
					}
				}
			}
			if got := db.Coverage(warmup); !reflect.DeepEqual(got, cov) {
				t.Fatalf("Coverage = %+v, want %+v", got, cov)
			}

			all := db.All()
			if len(all) != n {
				t.Fatalf("All: %d flows, want %d", len(all), n)
			}
			for i := range all {
				if !reflect.DeepEqual(all[i], db.At(i)) {
					t.Fatalf("All()[%d] differs from At(%d)", i, i)
				}
			}
			if n > 0 {
				all[0].Label = "mutated.example"
				if db.At(0).Label == "mutated.example" {
					t.Fatal("All returned the store itself, not a copy")
				}
			}

			var got bytes.Buffer
			if err := db.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if want := csvReference(t, db); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("WriteCSV differs from encoding/csv (%d vs %d bytes)", got.Len(), len(want))
			}
			back, err := ReadCSV(&got)
			if err != nil {
				t.Fatal(err)
			}
			checkLog(t, back, n)
		})
	}
}

// TestLogMergeOrder: Merge appends every record once, in argument order,
// whatever chunk boundaries the destination and the sources end on —
// including a destination whose last chunk is partial.
func TestLogMergeOrder(t *testing.T) {
	for _, a := range logSizes {
		for _, b := range logSizes {
			t.Run(fmt.Sprintf("%d+%d", a, b), func(t *testing.T) {
				db := logDB(0, a)
				db.Merge(logDB(a, b), New(), logDB(a+b, 3))
				checkLog(t, db, a+b+3)
			})
		}
	}
}

// TestLogQueryResultsStable: reads return copies, so a result is never
// changed by later writes, and All issued after more flows arrive returns
// the earlier result as its prefix — the log is only ever appended to.
func TestLogQueryResultsStable(t *testing.T) {
	db := logDB(0, chunkLen-1)
	before := db.All()
	at := db.At(1)
	values := append([]LabeledFlow(nil), before...)
	for i := chunkLen - 1; i < 4*chunkLen; i++ {
		db.Add(logFlow(i))
	}
	after := db.All()
	if len(after) != 4*chunkLen {
		t.Fatalf("All: %d flows after more adds, want %d", len(after), 4*chunkLen)
	}
	if !reflect.DeepEqual(after[:len(before)], values) {
		t.Fatal("the earlier All result is not a prefix of the later one")
	}
	if !reflect.DeepEqual(before, values) || !reflect.DeepEqual(at, values[1]) {
		t.Fatal("an earlier result changed under later writes")
	}
}

// TestAddAllocatesOneChunk: chunkLen adds cost exactly one allocation —
// the chunk — never a regrow-and-copy. (The chunk directory's own
// doubling adds a few allocations over all runs, which the per-run
// average rounds away.)
func TestAddAllocatesOneChunk(t *testing.T) {
	db := New()
	f := lf("", "192.0.2.1", 80, flows.L7HTTP, 0) // unlabeled: no SLD to derive
	if n := testing.AllocsPerRun(50, func() {
		for range chunkLen {
			db.Add(f)
		}
	}); n != 1 {
		t.Fatalf("%d adds allocate %v times, want 1", chunkLen, n)
	}
}

// TestChunkFillsPages: a chunk above the 32 KiB size classes is rounded
// up to whole 8 KiB pages, so its size must be a page multiple or the
// rounding is wasted heap in every chunk. A field added to row that breaks
// this must come with a new chunkLen.
func TestChunkFillsPages(t *testing.T) {
	const page, maxSmall = 8 << 10, 32 << 10
	size := chunkLen * unsafe.Sizeof(row{})
	if size > maxSmall && size%page != 0 {
		t.Fatalf("chunk of %d × %d B = %d B wastes %d B to page rounding",
			chunkLen, unsafe.Sizeof(row{}), size, page-size%page)
	}
}

// BenchmarkAddLoad adds one flow and loads it back per op, on a DB reset
// every chunkLen flows so it stays in one chunk and allocates nothing once
// warm. B/row is the heap a full chunk of such flows holds per flow: its
// row plus its share of the IPv6 log.
func BenchmarkAddLoad(b *testing.B) {
	for _, tc := range []struct{ name, client, server string }{
		{"ipv4", "10.0.0.1", "192.0.2.1"},
		{"ipv6", "2001:db8::1", "2001:db8:1::2"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f := lf("www.example.com", tc.server, 443, flows.L7TLS, time.Second)
			f.Key.ClientIP = netip.MustParseAddr(tc.client)
			db := New()
			for range chunkLen {
				db.Add(f)
			}
			held := uintptr(len(db.chunks))*unsafe.Sizeof([chunkLen]row{}) +
				uintptr(cap(db.v6))*unsafe.Sizeof(addr6{})
			b.ReportAllocs()
			var out LabeledFlow
			b.ResetTimer()
			for i := range b.N {
				if i%chunkLen == 0 {
					db.Reset()
				}
				db.Add(f)
				db.Load(i%chunkLen, &out)
			}
			b.ReportMetric(float64(held)/chunkLen, "B/row")
		})
	}
}
