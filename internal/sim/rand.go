package sim

// Rand is a small, fast, deterministic pseudo-random number generator
// (splitmix64 seeded, xorshift128+ stepped). Every stochastic component in
// the simulator owns its own Rand stream, seeded from the run seed and a
// component tag, so adding a component never perturbs the random sequence
// seen by another — runs are reproducible configuration-for-configuration.
type Rand struct {
	s0, s1 uint64
}

// splitmix64 expands a seed into well-distributed state words.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a generator seeded from seed. Two generators with the
// same seed produce identical sequences.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// NewRandTagged derives an independent stream from a run seed and a
// component tag (e.g. a core index or a workload name hash).
func NewRandTagged(seed uint64, tag string) *Rand {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	return NewRand(seed ^ h)
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with n == 0")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Rand) Perm(n int) []int {
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

// Zipf draws a skewed rank in [0, n) in which small (hot) ranks are
// likelier. It is a power-law approximation, not an exact zipf law, and
// keeps no table: for a uniform u in [0, 1) and s' = min(s, 0.99) it
// returns floor(n * u^e), clamped to n-1, with e = 0.5/(1-s') + 1. The
// power comes from pow, which is exact for e's integer part and blends
// linearly across its fraction. s <= 0 draws uniformly, and n <= 1
// returns 0. The skew is close enough for cache-locality modeling; a
// change to the formula changes every simulated result that uses it.
func (r *Rand) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s <= 0 {
		return r.Intn(n)
	}
	u := r.Float64()
	// Map uniform u to a power-law rank: small ranks (hot) are likelier.
	x := int(float64(n) * pow(u, 1.0/(1.0-minf(s, 0.99))*0.5+1.0))
	if x >= n {
		x = n - 1
	}
	if x < 0 {
		x = 0
	}
	return x
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// pow is a small local power helper (avoids importing math for one call
// site on the hot path; exponent is always > 1 here).
func pow(base, exp float64) float64 {
	// Use exp/log via the math package would be fine; implement with
	// repeated squaring over the integer part and a linear blend for the
	// fraction — adequate for sampling skew.
	if base <= 0 {
		return 0
	}
	ip := int(exp)
	frac := exp - float64(ip)
	out := 1.0
	b := base
	for ip > 0 {
		if ip&1 == 1 {
			out *= b
		}
		b *= b
		ip >>= 1
	}
	// Linear interpolation between base^i and base^(i+1) for the fraction.
	return out * (1 - frac + frac*base)
}
