package stats

import "sort"

// CDF is an empirical cumulative distribution function over float64 samples.
// The zero value is ready to use. Add samples, then call At. Used to
// regenerate the paper's CDF figures (Fig. 3 fan-out, Fig. 12/13 delays).
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns P(X <= x). It returns 0 for an empty CDF.
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	// Number of samples <= x.
	n := sort.Search(len(c.samples), func(i int) bool { return c.samples[i] > x })
	return float64(n) / float64(len(c.samples))
}
