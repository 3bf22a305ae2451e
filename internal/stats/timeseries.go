package stats

import (
	"strings"
	"time"
)

// Binner accumulates counts into fixed-width time bins relative to a trace
// start. It backs the paper's per-10-minute time series (Figs. 4, 5, 14) and
// the 4-hour tracker activity bins (Fig. 11).
type Binner struct {
	width time.Duration
	bins  []float64
}

// NewBinner creates a binner with the given bin width.
func NewBinner(width time.Duration) *Binner {
	if width <= 0 {
		panic("stats: non-positive bin width")
	}
	return &Binner{width: width}
}

// Index returns the bin index for an offset from trace start. Negative
// offsets map to bin 0.
func (b *Binner) Index(at time.Duration) int {
	if at < 0 {
		return 0
	}
	return int(at / b.width)
}

// Add accumulates v into the bin containing at, growing the series as needed.
func (b *Binner) Add(at time.Duration, v float64) {
	i := b.Index(at)
	for len(b.bins) <= i {
		b.bins = append(b.bins, 0)
	}
	b.bins[i] += v
}

// Incr adds 1 to the bin containing at.
func (b *Binner) Incr(at time.Duration) { b.Add(at, 1) }

// Values returns the accumulated bin values in time order.
func (b *Binner) Values() []float64 {
	out := make([]float64, len(b.bins))
	copy(out, b.bins)
	return out
}

// SetBinUnion is a per-bin set-cardinality accumulator: for each bin it
// tracks the set of distinct string keys observed, e.g. distinct serverIPs
// serving an SLD per 10-minute bin (Fig. 4) or distinct FQDNs per CDN
// (Fig. 5).
type SetBinUnion struct {
	width time.Duration
	bins  []map[string]struct{}
}

// NewSetBinUnion creates the accumulator with the given bin width.
func NewSetBinUnion(width time.Duration) *SetBinUnion {
	if width <= 0 {
		panic("stats: non-positive bin width")
	}
	return &SetBinUnion{width: width}
}

// Add records key as present in the bin containing at.
func (s *SetBinUnion) Add(at time.Duration, key string) {
	if at < 0 {
		at = 0
	}
	i := int(at / s.width)
	for len(s.bins) <= i {
		s.bins = append(s.bins, nil)
	}
	if s.bins[i] == nil {
		s.bins[i] = make(map[string]struct{})
	}
	s.bins[i][key] = struct{}{}
}

// Counts returns the per-bin distinct-key cardinalities.
func (s *SetBinUnion) Counts() []int {
	out := make([]int, len(s.bins))
	for i, m := range s.bins {
		out[i] = len(m)
	}
	return out
}

// Sparkline renders values as a compact unicode bar chart, one rune per bin.
// Empty input renders as an empty string.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	max := values[0]
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(blocks)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(blocks) {
				idx = len(blocks) - 1
			}
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
