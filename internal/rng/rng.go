// Package rng provides the deterministic random-number substrate used by
// every randomized component in the repository.
//
// All protocol code draws randomness through *RNG so that simulations,
// experiments and tests are reproducible from a single seed. The generator
// is PCG (math/rand/v2); independent streams for sub-components are derived
// with Split, which uses a SplitMix64 finalizer so child streams are
// decorrelated from the parent and from each other.
package rng

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// RNG is a seeded pseudo-random generator with the samplers needed by the
// protocol: fair bits and signs, Bernoulli trials, Laplace and geometric
// noise, binomial counts, Zipf-like integers and random subsets.
//
// An RNG owns its PCG state, so it can be a field of the object that
// draws from it and be seeded there with Seed; the zero value is
// unseeded. Do not copy an RNG once it is seeded: the copy would replay
// the original's stream instead of continuing it.
//
// RNG is not safe for concurrent use; derive one per goroutine with Split.
type RNG struct {
	pcg rand.PCG
	// seed state retained so Split can derive child streams.
	s0, s1 uint64
	splits uint64
}

// New returns an RNG seeded from the two given words.
func New(seed0, seed1 uint64) *RNG {
	g := &RNG{s0: seed0, s1: seed1}
	g.pcg.Seed(seed0, seed1)
	return g
}

// NewFromSeed returns an RNG seeded from a single int64, convenient for
// CLI flags. Negative seeds are permitted.
func NewFromSeed(seed int64) *RNG {
	g := new(RNG)
	g.Seed(seed)
	return g
}

// Seed is NewFromSeed in place: it resets g to the start of the stream
// NewFromSeed(seed) returns, Split counter included, without allocating.
func (g *RNG) Seed(seed int64) {
	u := uint64(seed)
	*g = RNG{s0: splitmix(u), s1: splitmix(u + 0x9e3779b97f4a7c15)}
	g.pcg.Seed(g.s0, g.s1)
}

// rand views g's PCG through math/rand/v2 for the samplers that live
// there (Float64, IntN, NormFloat64, Perm), so they consume the same
// state, word for word, as the direct draws below. The view is one
// interface word pair on the caller's stack, not an allocation.
func (g *RNG) rand() *rand.Rand { return rand.New(&g.pcg) }

// splitmix is the SplitMix64 finalizer, a high-quality 64-bit mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives a new, statistically independent RNG. Successive calls
// yield distinct streams; the parent's future output is unaffected.
func (g *RNG) Split() *RNG {
	g.splits++
	return New(
		splitmix(g.s0^splitmix(g.splits)),
		splitmix(g.s1+0x632be59bd9b4e019*g.splits),
	)
}

// Derive returns the idx-th child stream of g deterministically: unlike
// Split it does not depend on call order, so parallel code can assign
// stream i to shard i and produce identical results regardless of
// scheduling.
func (g *RNG) Derive(idx uint64) *RNG {
	return New(
		splitmix(g.s0^splitmix(idx^0xa0761d6478bd642f)),
		splitmix(g.s1+splitmix(idx)*0xe7037ed1a0b428db),
	)
}

// Uint64 returns a uniformly random 64-bit word.
func (g *RNG) Uint64() uint64 { return g.pcg.Uint64() }

// Int64 returns a uniformly random non-negative int64.
func (g *RNG) Int64() int64 { return int64(g.pcg.Uint64() >> 1) }

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.rand().IntN(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.rand().Float64() }

// Bernoulli reports true with probability p. Values of p outside [0, 1]
// are clamped.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.rand().Float64() < p
}

// Sign returns −1 or +1 with equal probability.
func (g *RNG) Sign() int8 {
	if g.pcg.Uint64()&1 == 0 {
		return 1
	}
	return -1
}

// Bit returns 0 or 1 with equal probability.
func (g *RNG) Bit() uint8 { return uint8(g.pcg.Uint64() & 1) }

// Laplace returns a sample from the Laplace distribution with mean 0 and
// the given scale (density (1/2b)·exp(−|x|/b)).
func (g *RNG) Laplace(scale float64) float64 {
	// Inverse CDF on u ∈ (−1/2, 1/2): x = −b·sgn(u)·ln(1−2|u|).
	u := g.rand().Float64() - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials (support {0, 1, 2, ...}). It panics if p is not in
// (0, 1].
func (g *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(ln U / ln(1−p)).
	u := g.rand().Float64()
	for u == 0 {
		u = g.rand().Float64()
	}
	return int(math.Log(u) / math.Log1p(-p))
}

// BinomialHalf returns an exact sample of Binomial(n, 1/2), computed as the
// popcount of n fair random bits. It runs in O(n/64) time.
func (g *RNG) BinomialHalf(n int) int {
	if n < 0 {
		panic("rng: BinomialHalf requires n >= 0")
	}
	c := 0
	for ; n >= 64; n -= 64 {
		c += bits.OnesCount64(g.pcg.Uint64())
	}
	if n > 0 {
		c += bits.OnesCount64(g.pcg.Uint64() & (1<<uint(n) - 1))
	}
	return c
}

// Binomial returns a sample of Binomial(n, p). For p = 1/2 it is exact via
// BinomialHalf. Otherwise it uses exact per-trial sampling for small n and
// the BG (geometric skips) method for larger n with small p; for large n·p
// it recurses on the median split, which keeps every path exact.
func (g *RNG) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial requires n >= 0")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p == 0.5 {
		return g.BinomialHalf(n)
	}
	if p > 0.5 {
		return n - g.Binomial(n, 1-p)
	}
	// Now p < 1/2.
	switch {
	case n <= 64:
		// Direct per-trial sampling.
		c := 0
		for i := 0; i < n; i++ {
			if g.rand().Float64() < p {
				c++
			}
		}
		return c
	case float64(n)*p <= 32:
		// Geometric skips: count successes by jumping over failures.
		c := 0
		i := g.Geometric(p)
		for i < n {
			c++
			i += 1 + g.Geometric(p)
		}
		return c
	default:
		// Median split: X = Beta-free exact recursion. First half of the
		// trials and second half are independent binomials.
		h := n / 2
		return g.Binomial(h, p) + g.Binomial(n-h, p)
	}
}

// SignedBinomialHalfSum returns the exact distribution of the sum of n
// i.i.d. uniform ±1 variables: 2·Binomial(n, 1/2) − n.
func (g *RNG) SignedBinomialHalfSum(n int) int {
	return 2*g.BinomialHalf(n) - n
}

// Normal returns a standard normal sample.
func (g *RNG) Normal() float64 { return g.rand().NormFloat64() }

// BinomialApprox returns a sample of Binomial(n, p), using the exact
// sampler when the distribution is small or skewed and the (rounded,
// clamped) normal approximation when n·p·(1−p) ≥ 10⁴, where the CLT error
// is far below a single standard deviation. The fast simulation engine
// uses it for aggregate randomized-response noise; the exact engine never
// does.
func (g *RNG) BinomialApprox(n int, p float64) int {
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if v := float64(n) * p * (1 - p); v < 1e4 {
		return g.Binomial(n, p)
	}
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	x := int(math.Round(mean + sd*g.Normal()))
	if x < 0 {
		x = 0
	}
	if x > n {
		x = n
	}
	return x
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.rand().Perm(n) }

// KSubset returns k distinct integers drawn uniformly from [0, n), in
// increasing order. It panics if k > n or either argument is negative.
func (g *RNG) KSubset(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: KSubset requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	if 3*k >= n {
		// Partial Fisher–Yates over a dense index array.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + g.rand().IntN(n-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		out := idx[:k:k] // n ≤ 3k, so the tail kept alive is at most 2k entries
		insertionSort(out)
		return out
	}
	// Sparse Floyd's algorithm.
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		t := g.rand().IntN(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
	}
	out := make([]int, 0, k)
	for v := range chosen {
		out = append(out, v)
	}
	insertionSort(out)
	return out
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s. It precomputes the CDF once; Sample is O(log n).
type Zipf struct {
	cdf []float64
	g   *RNG
}

// NewZipf constructs a Zipf sampler over [0, n) with exponent s >= 0.
// s = 0 is the uniform distribution.
func (g *RNG) NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf requires n > 0")
	}
	if s < 0 {
		panic("rng: NewZipf requires s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, g: g}
}

// Sample draws one Zipf-distributed integer.
func (z *Zipf) Sample() int {
	u := z.g.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
