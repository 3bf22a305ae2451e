package stream

import "repro/internal/swiss"

// Add64 folds one 64-bit value, hashing it with the shared fixed seed:
// the tests' way to feed an HLL a known value set.
func (h *HLL) Add64(v uint64) { h.AddHash(swiss.HashU64(hllSeed, v)) }
