package stream

import (
	"math"
	"math/bits"
	"net/netip"

	"repro/internal/swiss"
)

// hllSeed is the fixed hash seed shared by every HLL in the process (and
// across processes: it is a compile-time constant). Shard merges rely on
// it — register-max merging is only meaningful when all shards hash a
// given value to the same (register, rank) pair.
const hllSeed uint64 = 0x1D8E4C2A9B3F6E57

// Default and bounds for the register-count exponent.
const (
	// DefaultHLLPrecision gives 2^10 = 1024 registers: 1 KiB of state and
	// ~3.25% relative standard error, plenty for per-SLD server counts.
	DefaultHLLPrecision = 10
	minHLLPrecision     = 4
	maxHLLPrecision     = 16
)

// HLL is a HyperLogLog distinct-count estimator: 2^p one-byte registers,
// each remembering the maximum leading-zero rank seen in its substream.
// Relative standard error is 1.04/√(2^p). Merge takes register maxima,
// which is commutative, associative, and idempotent — so estimates are
// independent of shard count and merge order, and Estimate is
// deterministic for a given observed value set.
type HLL struct {
	p    uint8
	regs []uint8
}

// NewHLL builds an estimator with 2^p registers (p clamped to [4, 16]).
func NewHLL(p uint8) *HLL {
	if p < minHLLPrecision {
		p = minHLLPrecision
	}
	if p > maxHLLPrecision {
		p = maxHLLPrecision
	}
	return &HLL{p: p, regs: make([]uint8, 1<<p)}
}

// Precision returns the register-count exponent p.
func (h *HLL) Precision() uint8 { return h.p }

// AddHash folds one already-hashed value: the top p bits select a
// register, the rank is the leading-zero count of the rest (the sentinel
// bit keeps the rank defined when the remaining bits are all zero).
func (h *HLL) AddHash(x uint64) {
	idx := x >> (64 - h.p)
	w := x<<h.p | 1<<(h.p-1)
	r := uint8(bits.LeadingZeros64(w)) + 1
	if r > h.regs[idx] {
		h.regs[idx] = r
	}
}

// Add64 folds one 64-bit value, hashing it with the shared fixed seed.
func (h *HLL) Add64(v uint64) { h.AddHash(swiss.HashU64(hllSeed, v)) }

// AddAddr folds one address, hashing it with the shared fixed seed.
func (h *HLL) AddAddr(a netip.Addr) { h.AddHash(swiss.HashAddr(hllSeed, a)) }

// Merge folds another estimator into this one by register maxima. The
// precisions must match.
func (h *HLL) Merge(o *HLL) error {
	if h.p != o.p {
		return errPrecisionMismatch{h.p, o.p}
	}
	for i, r := range o.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	return nil
}

type errPrecisionMismatch struct{ a, b uint8 }

func (e errPrecisionMismatch) Error() string {
	return "stream: hll precision mismatch: " + itoa(int(e.a)) + " vs " + itoa(int(e.b))
}

// itoa avoids pulling strconv into the error path of a tiny type.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Estimate returns the distinct-count estimate: the harmonic-mean raw
// estimate with the standard bias correction, switching to linear
// counting in the small range (raw estimate ≤ 2.5m with empty registers
// remaining), where linear counting is more accurate.
func (h *HLL) Estimate() float64 {
	m := float64(int(1) << h.p)
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := alpha(1<<h.p) * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// StdError returns the estimator's relative standard error, 1.04/√m.
func (h *HLL) StdError() float64 {
	return 1.04 / math.Sqrt(float64(int(1)<<h.p))
}

// alpha is the bias-correction constant for m registers.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}
