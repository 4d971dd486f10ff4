package latency

import (
	"math"
	"math/rand"

	"ebslab/internal/cache"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
)

// GainResult compares an IO population's latency with and without a cache
// at one location (Figure 7b/c): the latency gain at a percentile is
// pX(with)/pX(without), in (0, 1]; smaller is better.
type GainResult struct {
	Location CacheLocation
	Op       trace.Op
	// Gain at the 0th, 50th and 99th percentiles, as the paper reports.
	P0, P50, P99 float64
	// HitRatio of the cache over the replayed accesses of this op.
	HitRatio float64
	Count    int
}

// EvaluateGain replays accesses through a frozen cache at the given
// location and measures per-op latency gains. The same RNG substream is
// used for the with/without latency draws, so gains isolate the cache
// effect rather than sampling noise. hotOffset/hotLen position the frozen
// cache.
func EvaluateGain(m *Model, accesses []cache.Access, hotOffset, hotLen int64, loc CacheLocation, seed int64) []GainResult {
	frozen := cache.NewFrozen(hotOffset, hotLen)
	return evaluateGain(m, accesses, loc, seed, func(a cache.Access, first, last int64) (CacheLocation, bool) {
		// Whole-IO hit: every covered page must be inside the frozen range.
		for p := first; p <= last; p++ {
			if !frozen.Touch(p, a.Write) {
				return loc, false
			}
		}
		return loc, true
	})
}

// EvaluateHybridGain evaluates the hybrid deployment §7.3.2 proposes as the
// cost-benefit compromise: a small CN-cache holds the hottest cnFrac of the
// hot range (fast path, skips the whole storage cluster) and a BS-cache
// backs the full hot range (catches what the CN-cache cannot hold). An IO
// is served at the nearest level that covers it.
func EvaluateHybridGain(m *Model, accesses []cache.Access, hotOffset, hotLen int64, cnFrac float64, seed int64) []GainResult {
	if cnFrac <= 0 {
		cnFrac = 0.25
	}
	if cnFrac > 1 {
		cnFrac = 1
	}
	cnLen := int64(float64(hotLen) * cnFrac)
	if cnLen < cache.PageSize {
		cnLen = cache.PageSize
	}
	cn := cache.NewFrozen(hotOffset, cnLen)
	bs := cache.NewFrozen(hotOffset, hotLen)
	return evaluateGain(m, accesses, HybridCache, seed, func(a cache.Access, first, last int64) (CacheLocation, bool) {
		cnHit, bsHit := true, true
		for p := first; p <= last; p++ {
			if !cn.Touch(p, a.Write) {
				cnHit = false
			}
			if !bs.Touch(p, a.Write) {
				bsHit = false
				break
			}
		}
		switch {
		case cnHit:
			return CNCache, true
		case bsHit:
			return BSCache, true
		}
		return NoCache, false
	})
}

// evaluateGain is the paired-draw loop behind both evaluators: serve picks
// each IO's (location, hit) from its page range [first, last], and the IO's
// latency is drawn twice from one substream — once uncached, once served
// there. Results are labelled with label.
func evaluateGain(m *Model, accesses []cache.Access, label CacheLocation, seed int64,
	serve func(a cache.Access, first, last int64) (CacheLocation, bool)) []GainResult {
	type bucket struct {
		with, without []float64
		hits, total   int
	}
	buckets := map[trace.Op]*bucket{trace.OpRead: {}, trace.OpWrite: {}}
	rng := rand.New(rand.NewSource(seed))
	for _, a := range accesses {
		op := trace.OpRead
		if a.Write {
			op = trace.OpWrite
		}
		first := a.Offset / cache.PageSize
		last := (a.Offset + int64(a.Size) - 1) / cache.PageSize
		loc, hit := serve(a, first, last)
		b := buckets[op]
		b.total++
		if hit {
			b.hits++
		}
		ioSeed := rng.Int63()
		sub := rand.New(rand.NewSource(ioSeed))
		without := Total(m.Sample(sub, op, a.Size, NoCache, false))
		sub = rand.New(rand.NewSource(ioSeed))
		with := Total(m.Sample(sub, op, a.Size, loc, hit))
		b.without = append(b.without, without)
		b.with = append(b.with, with)
	}
	var out []GainResult
	for _, op := range []trace.Op{trace.OpRead, trace.OpWrite} {
		b := buckets[op]
		res := GainResult{Location: label, Op: op, Count: b.total}
		if b.total == 0 {
			res.P0, res.P50, res.P99, res.HitRatio = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		} else {
			res.HitRatio = float64(b.hits) / float64(b.total)
			res.P0 = ratioAt(b.with, b.without, 0)
			res.P50 = ratioAt(b.with, b.without, 0.5)
			res.P99 = ratioAt(b.with, b.without, 0.99)
		}
		out = append(out, res)
	}
	return out
}

func ratioAt(with, without []float64, q float64) float64 {
	w := stats.Quantile(with, q)
	wo := stats.Quantile(without, q)
	if wo == 0 || math.IsNaN(w) || math.IsNaN(wo) {
		return math.NaN()
	}
	return w / wo
}

// CountCacheablePerNode implements Fig 7(d)'s provisioning metric: given
// each VD's hosting node (compute node for CN-cache, BlockServer of its
// hottest segment for BS-cache) and whether the VD is cacheable (hottest
// block access rate above the threshold), it returns the number of
// cacheable VDs per node. A wider spread means worse space utilization for
// uniformly-sized caches.
func CountCacheablePerNode(nodeOf []int, cacheable []bool, nNodes int) []int {
	counts := make([]int, nNodes)
	for i, n := range nodeOf {
		if n < 0 || n >= nNodes || !cacheable[i] {
			continue
		}
		counts[n]++
	}
	return counts
}
