// Package xrand provides pooled math/rand generators whose streams are
// bit-identical to rand.New(rand.NewSource(seed)) at a fraction of the
// seeding cost. math/rand's lagged-Fibonacci source spends ~10µs per Seed
// filling its 607-word state vector through three scrambling passes; the
// simulation engine derives several fresh streams per virtual disk per run,
// which made reseeding the single largest CPU sink of the hot path.
//
// xrand removes that cost twice over. First, the post-Seed state vector is a
// pure function of the seed, so it is computed once and memoized: later
// acquisitions of the same seed restore the vector with one memcpy. Second,
// the generator objects themselves are pooled, so steady-state acquisition
// allocates nothing.
//
// Determinism is load-bearing here (golden fixtures pin every byte of the
// engine's output), so the package proves its own equivalence at init time:
// it reconstructs the stdlib's additive-constant table from an observed
// output stream and verifies a mirrored source against math/rand on several
// seeds. If the running stdlib ever changes its generator, the self-check
// fails and every Get transparently falls back to plain math/rand — slower,
// never wrong.
package xrand

import (
	"math/rand"
	"sync"
)

// Lagged-Fibonacci shape of math/rand's rngSource.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// source mirrors math/rand.rngSource: same state, same update rule, so a
// seeded mirror emits the identical Uint64/Int63 stream.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Seed implements rand.Source, matching rngSource.Seed bit for bit (it is
// only ever called through the pooled Rand's embedded methods, if at all).
func (s *source) Seed(seed int64) { s.reseed(seed) }

// reseed positions the mirror at the exact post-Seed state of rngSource,
// restoring a memoized vector when one exists.
func (s *source) reseed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	if v := cacheGet(seed); v != nil {
		s.vec = *v
		return
	}
	computeVec(seed, &s.vec)
	cachePut(seed, &s.vec)
}

// seedrand is rngSource's Lehmer scrambler: x' = 48271*x mod (2^31-1).
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// cooked is the stdlib's rngCooked additive table, recovered at init (see
// recoverCooked). Valid only when mirrorOK.
var cooked [rngLen]int64

// computeVec fills vec with the post-Seed state of rngSource for seed,
// replicating Seed's scrambling chain over the recovered cooked table.
func computeVec(seed int64, vec *[rngLen]int64) {
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	for i := 0; i < rngLen; i++ {
		x = seedrand(x)
		u := int64(x) << 40
		x = seedrand(x)
		u ^= int64(x) << 20
		x = seedrand(x)
		u ^= int64(x)
		u ^= cooked[i]
		vec[i] = u
	}
}

// recoverCooked reconstructs rngCooked from one observed output stream.
//
// After Seed, tap=0 and feed=334; the k-th Uint64 (k from 0) reads positions
// tap_k = (606-k) mod 607 and feed_k = (333-k) mod 607, writes feed_k, and
// returns their sum. A tap position is first overwritten 273 steps after it
// is read, so the first 607 outputs determine the whole initial vector:
//
//	k in [273,606]: out_k = init[feed_k] + out_{k-273}  (tap already rewritten)
//	k in [0,272]:   out_k = init[feed_k] + init[tap_k]  (tap still initial)
//
// Solving the first family recovers init at positions 0..60 and 334..606;
// substituting into the second recovers 61..333. Int64 addition wraps, and
// wrapping subtraction inverts it exactly. The cooked table then falls out
// of init via Seed's xor structure. Returns false if the stdlib source does
// not expose Uint64 (it always does today).
func recoverCooked() bool {
	src, ok := rand.NewSource(1).(rand.Source64)
	if !ok {
		return false
	}
	var out [rngLen]int64
	for i := range out {
		out[i] = int64(src.Uint64())
	}
	var init [rngLen]int64
	for k := 273; k <= 606; k++ {
		feed := 333 - k
		if feed < 0 {
			feed += rngLen
		}
		init[feed] = out[k] - out[k-273]
	}
	for k := 0; k <= 272; k++ {
		init[333-k] = out[k] - init[606-k]
	}
	// Replay Seed(1)'s scrambling chain to strip it off init.
	seed := int64(1)
	x := int32(seed)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	for i := 0; i < rngLen; i++ {
		x = seedrand(x)
		u := int64(x) << 40
		x = seedrand(x)
		u ^= int64(x) << 20
		x = seedrand(x)
		u ^= int64(x)
		cooked[i] = init[i] ^ u
	}
	return true
}

// selfCheck verifies the mirror against math/rand over several seeds and
// enough draws to cross the state-vector wraparound.
func selfCheck() bool {
	for _, seed := range []int64{1, 0, -1, 12345, 1<<62 + 7, -987654321} {
		real64, ok := rand.NewSource(seed).(rand.Source64)
		if !ok {
			return false
		}
		var m source
		m.reseed(seed)
		for i := 0; i < 2*rngLen; i++ {
			if m.Uint64() != real64.Uint64() {
				return false
			}
		}
	}
	return true
}

// mirrorOK reports whether the mirrored source reproduces the running
// stdlib; when false, Get falls back to plain math/rand.
var mirrorOK = recoverCooked() && selfCheck()

// MirrorActive reports whether the fast mirrored path is in use (false
// means every Get transparently constructs a plain math/rand generator).
func MirrorActive() bool { return mirrorOK }

// Seed-vector memo. Hot simulation paths draw from a bounded set of derived
// seeds, so hit rates approach 1 after the first run; the map is reset when
// it would exceed maxCachedSeeds to bound memory on pathological workloads.
const maxCachedSeeds = 8192

var seedCache struct {
	sync.RWMutex
	m map[int64]*[rngLen]int64
}

func cacheGet(seed int64) *[rngLen]int64 {
	seedCache.RLock()
	v := seedCache.m[seed]
	seedCache.RUnlock()
	return v
}

func cachePut(seed int64, vec *[rngLen]int64) {
	cp := *vec
	seedCache.Lock()
	if seedCache.m == nil || len(seedCache.m) >= maxCachedSeeds {
		seedCache.m = make(map[int64]*[rngLen]int64)
	}
	seedCache.m[seed] = &cp
	seedCache.Unlock()
}

// Rand is a pooled generator. It embeds *rand.Rand, so every math/rand
// drawing method is available directly; Release returns it to the pool.
// Rand.Read must not be used (the wrapper's read state is not reset across
// pool reuse); the simulation streams never do.
type Rand struct {
	*rand.Rand
	src *source // nil on the fallback path
}

var pool = sync.Pool{
	New: func() any {
		s := &source{}
		return &Rand{Rand: rand.New(s), src: s}
	},
}

// Get returns a generator seeded with seed, bit-identical to
// rand.New(rand.NewSource(seed)). Call Release when the stream is done.
func Get(seed int64) *Rand {
	if !mirrorOK {
		return &Rand{Rand: rand.New(rand.NewSource(seed))}
	}
	r := pool.Get().(*Rand)
	r.src.reseed(seed)
	return r
}

// Release returns the generator to the pool. The Rand must not be used
// after Release.
func (r *Rand) Release() {
	if r.src != nil {
		pool.Put(r)
	}
}

// Mix is the splitmix64 finalizer: a fast, high-quality 64-bit mixer. Every
// derived seed and every hash-based sampling decision in the module goes
// through it, so adjacent inputs (VD IDs, trace IDs, sketch keys) land on
// decorrelated outputs.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive returns the seed of one named stream: stream family tag (distinct
// per family) for one entity under the master seed. Regenerating any
// entity's stream therefore never depends on generation order.
func Derive(master int64, tag, entity uint64) int64 {
	h := Mix(uint64(master) ^ Mix(tag))
	return int64(Mix(h ^ Mix(entity)))
}
