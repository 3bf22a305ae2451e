package stream_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/analytics/stream"
)

// FuzzSketchVsExact drives both sketches from an arbitrary byte string
// interpreted as an observation stream over a small key universe, and
// cross-checks them against exact map models:
//
//   - space-saving: every tracked count brackets the true count, errors
//     stay under N/m, heavy hitters above N/m are never lost;
//   - HLL: the estimate stays within 6σ of the true distinct count.
//
// CI runs this as a short fuzz smoke (-fuzz -fuzztime 30s) on top of the
// seeded corpus executing in normal test runs.
func FuzzSketchVsExact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("aaaaaaaabbbbcccd"))
	f.Add([]byte{255, 254, 0, 0, 0, 1, 128, 128, 128, 7, 7, 7, 7, 7, 7, 7})
	big := make([]byte, 512)
	for i := range big {
		big[i] = byte(i * i)
	}
	f.Add(big)

	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 4
		keys := make([]string, len(data))
		for i, b := range data {
			keys[i] = fmt.Sprintf("k%d", b%16) // universe of 16 > capacity 4
		}

		// --- space-saving vs exact counting ---
		ss := stream.NewSpaceSaving(capacity)
		truth := map[string]uint64{}
		for _, k := range keys {
			ss.Observe(k)
			truth[k]++
		}
		n := uint64(len(keys))
		if ss.Observed() != n {
			t.Fatalf("observed %d, want %d", ss.Observed(), n)
		}
		bound := n / capacity
		tracked := map[string]bool{}
		for _, e := range ss.Top(0) {
			tracked[e.Key] = true
			if e.Err > bound {
				t.Fatalf("key %s: err %d > N/m %d", e.Key, e.Err, bound)
			}
			tc := truth[e.Key]
			if tc > e.Count || tc < e.Count-e.Err {
				t.Fatalf("key %s: true %d outside [%d, %d]", e.Key, tc, e.Count-e.Err, e.Count)
			}
		}
		for k, tc := range truth {
			if tc > bound && !tracked[k] {
				t.Fatalf("heavy hitter %s (%d > %d) lost", k, tc, bound)
			}
		}

		// --- HLL vs exact distinct set ---
		// Widen the universe with pair-encoded values so cardinality varies.
		h := stream.NewHLL(stream.DefaultHLLPrecision)
		distinct := map[uint64]bool{}
		for i := 0; i+1 < len(data); i += 2 {
			v := uint64(data[i])<<8 | uint64(data[i+1])
			h.Add64(v)
			distinct[v] = true
		}
		est := h.Estimate()
		n64 := float64(len(distinct))
		slack := 6 * h.StdError() * n64
		if slack < 2 {
			slack = 2
		}
		if math.Abs(est-n64) > slack {
			t.Fatalf("hll estimate %.1f for %d distinct, slack %.1f", est, len(distinct), slack)
		}
	})
}
