package workload

import (
	"math"
	"math/rand"

	"ebslab/internal/xrand"
)

// Stream tags for xrand.Derive. Each family of random draws gets its own tag so
// streams are mutually independent.
const (
	tagFleet     uint64 = 0xF1EE7
	tagVDModel   uint64 = 0x5E11E
	tagVDSeries  uint64 = 0x7A5C1
	tagQPSplit   uint64 = 0x0B5E5
	tagSegSplit  uint64 = 0x5E650
	tagEvents    uint64 = 0xE7E57
	tagPlacement uint64 = 0x91ACE
)

// newRand builds a *rand.Rand from a derived seed.
func newRand(master int64, tag, entity uint64) *rand.Rand {
	return rand.New(rand.NewSource(xrand.Derive(master, tag, entity)))
}

// acquireRand is newRand through the pooled seed-mirroring source: the
// returned handle's embedded *rand.Rand produces the identical stream, but
// acquiring it costs ~100ns and zero allocations instead of a full
// lagged-Fibonacci reseed. Release the handle when the stream is done.
func acquireRand(master int64, tag, entity uint64) *xrand.Rand {
	return xrand.Get(xrand.Derive(master, tag, entity))
}

// permInto writes rand.Perm(n) into buf (grown if needed), replicating the
// stdlib draw-for-draw — including the redundant i=0 Intn(1) call — so the
// RNG stream position after the call is identical.
func permInto(rng *rand.Rand, n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// lognormal draws exp(N(mu, sigma^2)).
func lognormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// pareto draws from a Pareto distribution with scale xm > 0 and shape a > 0
// via inverse-CDF sampling. Smaller a means a heavier tail.
func pareto(rng *rand.Rand, xm, a float64) float64 {
	u := rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/a)
}

// boundedPareto draws from a Pareto(xm, a) truncated at hi by resampling the
// uniform, which keeps the tail shape below the bound.
func boundedPareto(rng *rand.Rand, xm, a, hi float64) float64 {
	if hi <= xm {
		return xm
	}
	// Inverse CDF of the truncated distribution.
	u := rng.Float64()
	l := math.Pow(xm, a)
	h := math.Pow(hi, a)
	x := math.Pow(-(u*h-u*l-h)/(h*l), -1/a)
	return x
}

// zipfWeights returns n weights proportional to 1/rank^s, normalized to sum
// to 1, in rank order (index 0 largest).
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// dirichletLike draws n positive weights summing to 1 whose skew is governed
// by shape: small shape (<1) concentrates mass on few entries; large shape
// approaches uniform. It uses normalized Gamma(shape) variates drawn by the
// Marsaglia-Tsang method.
func dirichletLike(rng *rand.Rand, n int, shape float64) []float64 {
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = gammaDraw(rng, shape)
		total += w[i]
	}
	if total == 0 {
		// Vanishingly unlikely; fall back to all mass on entry 0.
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// gammaDraw samples Gamma(shape, 1) using Marsaglia & Tsang (2000); for
// shape < 1 it uses the boosting transform.
func gammaDraw(rng *rand.Rand, shape float64) float64 {
	if shape <= 0 {
		panic("workload: gammaDraw needs positive shape")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^{1/a}
		u := rng.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// pickWeighted returns an index into weights drawn proportionally to the
// weights (which need not be normalized but must be non-negative with a
// positive sum).
func pickWeighted(rng *rand.Rand, weights []float64) int {
	return pickWeightedTotal(rng, weights, sumWeights(weights))
}

// sumWeights sums left to right — the exact accumulation pickWeighted
// performs, so hot loops can hoist the total without changing any draw.
func sumWeights(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	return total
}

// pickWeightedTotal is pickWeighted with the weight total precomputed (it
// must equal sumWeights(weights) bit for bit).
func pickWeightedTotal(rng *rand.Rand, weights []float64, total float64) int {
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// geometricAtLeast1 draws a geometric count >= 1 with the given mean (>= 1).
func geometricAtLeast1(rng *rand.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	// Mean of 1+Geometric(p) is 1 + (1-p)/p = 1/p.
	p := 1 / mean
	n := 1
	for rng.Float64() > p {
		n++
		if n >= 64 { // guard against pathological draws
			break
		}
	}
	return n
}
