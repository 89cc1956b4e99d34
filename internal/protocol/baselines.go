package protocol

import (
	"fmt"

	"rtf/internal/core"
	"rtf/internal/probmath"
	"rtf/internal/rng"
)

// ---------------------------------------------------------------------------
// Erlingsson et al. (2020) baseline, as described in Section 6.
//
// Each user keeps at most one of their ≤ k changes: the user pre-samples
// an index i ∈ [k] uniformly and, as changes occur, applies only the i-th
// one to a shadow stream (all other changes are dropped). The shadow
// stream therefore has at most one non-zero partial sum at any order; it
// is perturbed with the basic randomizer R at ε̃ = ε/2. Because every
// change survives with probability exactly 1/k — even for users with
// fewer than k changes — the server multiplies its estimator by k and
// remains unbiased. A change past the k-th is never kept, so on a
// stream with more changes the estimate is of the k-clipped stream, the
// one a framework client perturbs (ClipStream).

// ErlingssonClient implements the baseline client. Like Client it must
// not be copied once built.
type ErlingssonClient struct {
	reporter
	keepIdx  int // which change (1-based) survives sampling
	changes  int // changes seen so far in the true stream
	prevVal  uint8
	keptTime int  // time of the kept change (0 if none yet)
	keptSign int8 // sign of the kept coordinate of X_u: ±1
}

// NewSeededErlingssonClient builds a baseline client drawing the stream
// rng.NewFromSeed(seed) would produce from a generator inside the client
// (one allocation, as NewSeededClient); the per-order factory table must
// contain basic-randomizer factories at ε̃ = ε/2 (see
// ErlingssonFactories).
func NewSeededErlingssonClient(user, d, k int, factories []core.Factory, seed int64) *ErlingssonClient {
	if k < 1 {
		panic("protocol: Erlingsson baseline needs k >= 1")
	}
	c := new(ErlingssonClient)
	c.own.Seed(seed)
	h := SampleOrder(&c.own, d)
	c.keepIdx = 1 + c.own.IntN(k)
	c.reporter.init(user, d, h, factories[h], &c.own)
	return c
}

// Observe consumes st_u[t] and emits a report at multiples of 2^h, like
// Client.Observe, but over the sparsified derivative X'_u, which keeps
// only the sampled change with its true sign (+1 for 0→1, −1 for 1→0).
// X'_u has a single non-zero coordinate, so the partial sum of order h at
// a reporting time t is keptSign if the kept change falls inside the
// interval (t−2^h, t], and 0 otherwise.
func (c *ErlingssonClient) Observe(value bool) (Report, bool) {
	reporting := c.tick()
	if v := bit(value); v != c.prevVal {
		c.changes++
		if c.changes == c.keepIdx {
			c.keptTime = c.t
			c.keptSign = int8(2*int(v) - 1)
		}
		c.prevVal = v
	}
	if !reporting {
		return Report{}, false
	}
	var sum int8
	if c.keptTime >= c.t-c.mask {
		sum = c.keptSign
	}
	return c.report(sum), true
}

// ErlingssonFactories returns the per-order basic-randomizer table at
// ε̃ = ε/2 used by the baseline.
func ErlingssonFactories(d int, eps float64) ([]core.Factory, error) {
	return FactoryTable(d, 1, eps, func(l, _ int, _ float64) (core.Factory, error) {
		return core.NewBasicFactory(l, eps/2)
	})
}

// ErlingssonScale returns the baseline's estimator scale:
// k·(1+log₂ d)/c_gap with c_gap = (e^{ε/2}−1)/(e^{ε/2}+1).
func ErlingssonScale(d, k int, eps float64) float64 {
	return float64(k) * EstimatorScale(d, probmath.CGapBasic(eps/2))
}

// ---------------------------------------------------------------------------
// Naive budget-splitting baseline (Section 1): repeat a one-shot
// randomized-response protocol at every time period, spending ε/d each.

// NaiveSplitClient reports RR(st_u[t]) with budget ε/d at every t.
type NaiveSplitClient struct {
	user     int
	d        int
	keepProb float64
	g        *rng.RNG
	t        int
}

// NaiveReport is a per-period ±1 randomized response.
type NaiveReport struct {
	User int
	T    int
	Bit  int8
}

// NewNaiveSplitClient builds the baseline client. The per-report budget
// is eps/d so the composition over all d reports is ε-DP.
func NewNaiveSplitClient(user, d int, eps float64, g *rng.RNG) *NaiveSplitClient {
	if d < 1 || !(eps > 0) {
		panic(fmt.Sprintf("protocol: invalid naive-split params d=%d eps=%v", d, eps))
	}
	c := probmath.CGapBasic(eps / float64(d))
	return &NaiveSplitClient{user: user, d: d, keepProb: (1 + c) / 2, g: g}
}

// Observe consumes st_u[t] and always returns a report.
func (c *NaiveSplitClient) Observe(v uint8) NaiveReport {
	c.t++
	if c.t > c.d {
		panic("protocol: more observations than time periods")
	}
	if v > 1 {
		panic("protocol: stream value must be 0/1")
	}
	enc := int8(2*int(v) - 1) // 0/1 → ∓1
	if !c.g.Bernoulli(c.keepProb) {
		enc = -enc
	}
	return NaiveReport{User: c.user, T: c.t, Bit: enc}
}

// NaiveSplitServer debiases the per-period randomized responses:
// â[t] = n/2 + Σ_u bits[t] / (2·c_gap).
type NaiveSplitServer struct {
	d     int
	cgap  float64
	sums  []int64
	users int
}

// NewNaiveSplitServer builds the aggregator for per-report budget ε/d.
func NewNaiveSplitServer(d int, eps float64) *NaiveSplitServer {
	return &NaiveSplitServer{d: d, cgap: probmath.CGapBasic(eps / float64(d)), sums: make([]int64, d)}
}

// Register counts a participating user.
func (s *NaiveSplitServer) Register() { s.users++ }

// Users returns the number of registered users.
func (s *NaiveSplitServer) Users() int { return s.users }

// Ingest accumulates one report.
func (s *NaiveSplitServer) Ingest(r NaiveReport) {
	if r.T < 1 || r.T > s.d {
		panic("protocol: report time out of range")
	}
	s.sums[r.T-1] += int64(r.Bit)
}

// IngestSum adds a pre-aggregated per-period bit sum (fast simulation).
func (s *NaiveSplitServer) IngestSum(t int, sum int64) { s.sums[t-1] += sum }

// EstimateAt returns â[t].
func (s *NaiveSplitServer) EstimateAt(t int) float64 {
	return float64(s.users)/2 + float64(s.sums[t-1])/(2*s.cgap)
}

// EstimateSeries returns â[1..d].
func (s *NaiveSplitServer) EstimateSeries() []float64 {
	out := make([]float64, s.d)
	for t := 1; t <= s.d; t++ {
		out[t-1] = s.EstimateAt(t)
	}
	return out
}

// CGap returns the per-report preservation gap (e^{ε/d}−1)/(e^{ε/d}+1).
func (s *NaiveSplitServer) CGap() float64 { return s.cgap }
