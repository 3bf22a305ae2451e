package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// dist summarises the samples one run took of one metric: the median is
// the run's value, the quartiles and count say how steady it was.
type dist struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize returns the median and quartiles of v (which it sorts).
// Quartiles follow Python's statistics.quantiles(v, n=4) — the exclusive
// method — because that is the rule the acceptance spread is computed with.
func summarize(v []float64) dist {
	if len(v) == 0 {
		return dist{}
	}
	sort.Float64s(v)
	return dist{
		Median: quantile(v, 0.5),
		Q1:     quantile(v, 0.25),
		Q3:     quantile(v, 0.75),
		N:      len(v),
	}
}

// quantile is the exclusive-method quantile of sorted v at p in (0,1).
func quantile(v []float64, p float64) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	pos := p*float64(n+1) - 1 // zero-based position between order statistics
	if pos <= 0 {
		return v[0]
	}
	if pos >= float64(n-1) {
		return v[n-1]
	}
	lo := int(math.Floor(pos))
	return v[lo] + (v[lo+1]-v[lo])*(pos-float64(lo))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted v: the smallest sample with at least p% of the samples at or
// below it.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(v)))) - 1
	return v[max(0, min(i, len(v)-1))]
}

// tailPercentile is the highest of p99/p95/p90 of sorted v that still has
// at least ten samples beyond it (choosing-metrics §1), the median if none.
func tailPercentile(v []float64) float64 {
	for _, p := range []float64{99, 95, 90} {
		if float64(len(v))*(100-p)/100 >= 10 {
			return percentile(v, p)
		}
	}
	return percentile(v, 50)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
