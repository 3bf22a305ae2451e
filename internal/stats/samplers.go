package stats

import (
	"math"
	"sort"
)

// Zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// Service popularity in the synthesizer follows a Zipf law, matching the
// skewed access patterns the paper reports (a handful of SLDs dominate
// flows while the FQDN tail keeps growing).
type Zipf struct {
	cdf []float64 // cumulative, normalized
}

// NewZipf builds a sampler over n ranks with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws a rank in [0, N).
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search the CDF.
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// WeightedChoice samples indexes proportionally to the given non-negative
// weights. Zero-weight entries are never chosen. Construction is O(n),
// sampling O(log n).
type WeightedChoice struct {
	cum []float64
}

// NewWeightedChoice builds a sampler. It panics if all weights are zero or
// any weight is negative.
func NewWeightedChoice(weights []float64) *WeightedChoice {
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("stats: negative weight")
		}
		sum += w
		cum[i] = sum
	}
	if sum <= 0 {
		panic("stats: all weights zero")
	}
	for i := range cum {
		cum[i] /= sum
	}
	return &WeightedChoice{cum: cum}
}

// Sample draws one index.
func (w *WeightedChoice) Sample(r *RNG) int {
	u := r.Float64()
	i := sort.SearchFloat64s(w.cum, u)
	if i >= len(w.cum) {
		i = len(w.cum) - 1
	}
	return i
}

// Diurnal is a 24-hour activity profile. Value(t) returns a multiplicative
// load factor in (0, 1]; the paper's traces show pronounced diurnal cycles
// (Figs. 4, 5, 6, 14) with an evening peak and an early-morning trough.
type Diurnal struct {
	// PeakHour is the hour of maximum activity (e.g. 21.0 for 9 pm).
	PeakHour float64
	// Floor is the minimum relative load at the trough, in (0, 1].
	Floor float64
}

// Value returns the relative load at an offset from local midnight. The
// profile is a raised cosine between Floor and 1.0 peaking at PeakHour.
func (d Diurnal) Value(hourOfDay float64) float64 {
	floor := d.Floor
	if floor <= 0 {
		floor = 0.1
	}
	if floor > 1 {
		floor = 1
	}
	phase := 2 * math.Pi * (hourOfDay - d.PeakHour) / 24
	c := (math.Cos(phase) + 1) / 2 // 1 at peak, 0 at trough
	return floor + (1-floor)*c
}
