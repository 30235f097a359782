package tensor

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator. It is cheap,
// has excellent statistical quality for simulation purposes, and — unlike
// math/rand's global state — makes every experiment reproducible from a
// seed and safe to shard across goroutines (give each worker its own RNG
// derived via Split).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split derives an independent generator from the current one. The derived
// stream is decorrelated from the parent by a fixed odd multiplier.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9}
}

// State exposes the generator's internal state for checkpointing: a
// training run that must resume bit-identically after a crash snapshots
// every RNG stream it owns (loader shuffle, augmentation, stochastic
// codecs) and restores them with SetState.
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds (or fast-forwards) the generator to a state captured
// with State. The next Uint64 after SetState(s) equals the one that
// followed when State returned s.
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard-normal sample via Box–Muller.
func (r *RNG) Norm() float64 {
	// Guard against log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FillNormal fills t with N(mean, std²) samples.
func (t *Tensor) FillNormal(rng *RNG, mean, std float32) {
	for i := range t.data {
		t.data[i] = mean + std*float32(rng.Norm())
	}
}

// FillHeNormal applies the He et al. (2015) initialization used by the
// paper: N(0, sqrt(2/fanIn)).
func (t *Tensor) FillHeNormal(rng *RNG, fanIn int) {
	if fanIn <= 0 {
		fanIn = 1
	}
	std := float32(math.Sqrt(2 / float64(fanIn)))
	t.FillNormal(rng, 0, std)
}
