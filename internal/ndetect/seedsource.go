package ndetect

// seedSource is math/rand's own generator — the source rand.NewSource
// returns, an additive lagged Fibonacci generator over 607 words — with a
// faster Seed. Wrapped in rand.New, it yields the same Int63 stream for
// every seed, so Intn and Shuffle, which are math/rand's own, draw exactly
// what rand.New(rand.NewSource(seed)) draws (TestSeedSourceMatchesMathRand).
//
// Seeding fills word i from three consecutive values of the sequence
// x ← a·x mod p, a = 48271, p = 2^31 − 1, XORed with rngCooked[i].
// math/rand steps the sequence serially, 1,841 times per seed, with
// Schrage's division-based method. Here a word's three values are
// x, a·x and a²·x, and the next word starts at a³·x, so the only serial
// dependency is one multiplication per word; each product is below 2^62
// and is reduced modulo p with shifts, since 2^31 ≡ 1 (mod p).
type seedSource struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1 // p, the seeding modulus
	seedA    = 48271     // a, the seeding multiplier
	seedA2   = seedA * seedA % int32max
	seedA3   = seedA2 * seedA % int32max
)

// mulMod returns x·c mod p for 0 < x, c < p. Each fold keeps the value's
// residue, and the second leaves it in [0, p]; since p is prime, x·c is
// no multiple of p, so neither end occurs and the value is the residue.
func mulMod(x, c uint64) uint64 {
	y := x * c             // < 2^62
	y = y&int32max + y>>31 // < 2^32 − 1
	return y&int32max + y>>31
}

// Seed implements rand.Source: the state math/rand's Seed computes.
func (r *seedSource) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	// math/rand's 20 warm-up steps, then the step that starts word 0.
	x := uint64(seed)
	for range 21 {
		x = mulMod(x, seedA)
	}
	for i := range r.vec {
		u := int64(x)<<40 ^ int64(mulMod(x, seedA))<<20 ^ int64(mulMod(x, seedA2))
		r.vec[i] = u ^ rngCooked[i]
		x = mulMod(x, seedA3)
	}
}

// Int63 implements rand.Source: math/rand's next value, unchanged.
func (r *seedSource) Int63() int64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x & (1<<63 - 1)
}
