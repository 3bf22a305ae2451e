// Package stats provides the statistical substrate shared by the trace
// synthesizer and the analytics modules: seeded random samplers (Zipf,
// lognormal, exponential), empirical CDFs, fixed-width time binning, and the
// FQDN token utilities used by the service-tag extraction algorithm.
//
// Everything in this package is deterministic given a seed and uses only the
// standard library.
package stats

import "math"

// RNG is a small, fast, seedable pseudo-random generator (splitmix64 seeded
// xorshift*). It exists so the synthesizer is reproducible across Go versions:
// math/rand's global stream ordering is not part of our compatibility surface,
// and math/rand/v2 reseeds differently. RNG is not safe for concurrent use;
// give each goroutine its own instance (use Split).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state. A zero seed is remapped to a fixed
// non-zero constant because the xorshift core has a fixed point at zero.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 step to diffuse low-entropy seeds.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	r.state = z
}

// Split derives an independent generator from the current one. The child
// stream does not overlap the parent stream for any practical horizon.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box–Muller, one branch).
func (r *RNG) NormFloat64() float64 {
	// Marsaglia polar method; rejection loop terminates with prob ~0.785/iter.
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)). Used for first-flow delays, whose
// empirical CDF in the paper (Fig. 12) is well approximated by a lognormal
// body with a heavy prefetch tail added separately by the synthesizer.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Exponential returns an exponential variate with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
