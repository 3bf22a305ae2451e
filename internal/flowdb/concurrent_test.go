package flowdb_test

import (
	"fmt"
	"io"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/analytics"
	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/orgdb"
)

// TestConcurrentQueriesAfterIngest: once writing has stopped, a DB is
// read-only and needs no lock, so Load scans, Coverage, WriteCSV and the
// analytics scans built on them may run on many goroutines at once (run
// under -race).
func TestConcurrentQueriesAfterIngest(t *testing.T) {
	db := flowdb.New()
	for i := range 500 {
		db.Add(flowdb.LabeledFlow{
			Record: flows.Record{
				Key: flows.Key{
					ClientIP:   netip.AddrFrom4([4]byte{10, 0, 0, byte(i % 7)}),
					ServerIP:   netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}),
					ServerPort: uint16(80 + i%3),
				},
				L7: flows.L7HTTP,
			},
			Label: "cdn.example.com", Labeled: i%5 != 0, Vantage: "EU1",
		})
	}
	odb := orgdb.New([]orgdb.Entry{{Prefix: netip.MustParsePrefix("203.0.113.0/24"), Org: "cdn"}})
	// 400 labeled flows; servers 245, 250 and 255 carry only an unlabeled
	// one, so 253 of the 256 serve the label.
	readers := []func() error{
		func() error {
			var f flowdb.LabeledFlow
			labeled := 0
			for i := range db.Len() {
				db.Load(i, &f)
				if f.Labeled {
					labeled++
				}
			}
			if labeled != 400 {
				return fmt.Errorf("scan: %d labeled flows, want 400", labeled)
			}
			return nil
		},
		func() error {
			if cov := db.Coverage(0); cov.Total[flows.L7HTTP] != 500 || cov.Labeled[flows.L7HTTP] != 400 {
				return fmt.Errorf("Coverage = %+v", cov)
			}
			return nil
		},
		func() error { return db.WriteCSV(io.Discard) },
		func() error {
			res := analytics.SpatialDiscovery(db, odb, "example.com")
			if n := len(res.PerFQDN["cdn.example.com"]); res.TotalFlows != 400 || n != 253 || len(res.Hosts) != 1 {
				return fmt.Errorf("SpatialDiscovery: %d flows, %d servers, hosts %+v", res.TotalFlows, n, res.Hosts)
			}
			return nil
		},
		func() error {
			if tags := analytics.ExtractTags(db, 80, 5); len(tags) != 1 || tags[0].Token != "cdn" {
				return fmt.Errorf("ExtractTags = %+v", tags)
			}
			return nil
		},
	}
	var wg sync.WaitGroup
	for g := range 2 * len(readers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := readers[g%len(readers)](); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
