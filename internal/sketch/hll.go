package sketch

import (
	"math"

	"ebslab/internal/xrand"
)

// HLL is a HyperLogLog cardinality estimator with 2^p single-byte
// registers. The standard error of the estimate is about 1.04/sqrt(2^p) —
// roughly 1.6% at the default p=12 (4 KiB of state). Registers take the
// maximum over observations, so Add commutes and Merge (register-wise max)
// is associative, commutative, and idempotent: the state is a pure function
// of the ingested key set.
type HLL struct {
	p         uint8
	registers []uint8
}

// NewHLL creates an estimator with 2^p registers (p outside [4, 16] falls
// back to the default 12).
func NewHLL(p int) *HLL {
	if p < 4 || p > 16 {
		p = 12
	}
	return &HLL{p: uint8(p), registers: make([]uint8, 1<<p)}
}

// P returns the register-count exponent.
func (h *HLL) P() int { return int(h.p) }

// Add ingests one key (hashed internally with splitmix64).
func (h *HLL) Add(key uint64) {
	x := xrand.Mix(key)
	idx := x >> (64 - h.p)
	// rho: position of the leftmost 1-bit in the remaining 64-p bits.
	rest := x<<h.p | 1<<(uint(h.p)-1) // sentinel caps rho at 64-p+1
	var rho uint8 = 1
	for rest&(1<<63) == 0 {
		rho++
		rest <<= 1
	}
	if rho > h.registers[idx] {
		h.registers[idx] = rho
	}
}

// Merge folds o (which must share h's precision) into h register-wise.
func (h *HLL) Merge(o *HLL) {
	for i, v := range o.registers {
		if v > h.registers[i] {
			h.registers[i] = v
		}
	}
}

// Estimate returns the estimated number of distinct keys ingested, with the
// small-range linear-counting correction of the original paper.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.registers))
	var sum float64
	zeros := 0
	for _, r := range h.registers {
		sum += math.Pow(2, -float64(r))
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// AppendHash writes the estimator's canonical serialization into d.
func (h *HLL) AppendHash(d *digest) {
	d.u64(uint64(h.p))
	for i := 0; i < len(h.registers); i += 8 {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(h.registers[i+j]) << (8 * j)
		}
		d.u64(w)
	}
}
