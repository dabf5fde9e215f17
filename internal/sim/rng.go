package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (splitmix64-seeded xorshift*), used everywhere in the simulation instead of
// math/rand so that results are stable across Go releases and so that each
// (campaign, instance) pair owns an independent stream derived from a seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, which guarantees
// a well-mixed non-zero internal state even for small or adjacent seeds.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed.
func (r *RNG) Seed(seed int64) {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	r.state = z
}

// Fork returns a new independent generator derived from this one's stream and
// the given label, without perturbing r. Use it to give each testing instance
// its own stream from a campaign seed.
func (r *RNG) Fork(label int64) *RNG {
	return NewRNG(int64(r.state ^ uint64(label+1)*0x9E3779B97F4A7C15))
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative random 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// DurationBetween returns a uniform duration in [lo, hi].
func (r *RNG) DurationBetween(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Int63()%int64(hi-lo+1))
}

// PermInto fills p with a random permutation of [0, len(p)) and returns it.
// p's previous contents do not matter, so a caller can reuse one buffer
// across calls.
func (r *RNG) PermInto(p []int) []int {
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
