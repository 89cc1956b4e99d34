// Package probmath computes the exact output distribution of the composed
// randomizer R̃ of Section 5 of the paper, for the annulus actually used
// by the implementation (integer-clamped bounds). Everything the server
// and the privacy verifier need derives from it:
//
//   - g(i) = p^i(1−p)^{k−i}, the probability that the i.i.d. basic
//     randomizer lands at Hamming distance i from the input (§5.5);
//   - P*out, the common probability assigned to every string outside the
//     annulus (Eq 24);
//   - c_gap, the per-coordinate preservation gap (Eq 42), computed
//     *exactly* for the implemented sampler so the server's unbiased
//     estimator (Algorithm 2, line 5) carries no modeling error;
//   - p'min, p'max and the realized privacy ratio ln(p'max/p'min)
//     (Lemma 5.2);
//   - prefix marginals of R̃(1^k), used to verify end-to-end client
//     privacy exactly (Theorem 4.5).
//
// All quantities are computed with math/big.Float at k-dependent precision
// and exposed as float64; a float64 log-space path cross-checks them in
// tests. Both the paper's annulus (Eq 15) and Bun et al.'s annulus
// (Appendix A.2, Eq 43) are supported through the same Annulus type.
package probmath

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"

	"rtf/internal/binom"
)

// Annulus holds the exact output distribution of R̃ for per-coordinate
// flip probability p and integer annulus [LB..UB] ⊆ [0..k]: strings at
// distance i ∈ [LB..UB] from the input keep probability g(i); all other
// strings share probability POut.
type Annulus struct {
	K      int     // input length (number of non-zero coordinates)
	P      float64 // per-coordinate flip probability, p = 1/(e^ε̃+1)
	LB, UB int     // inclusive integer annulus bounds, 0 ≤ LB ≤ UB ≤ k

	prec uint
	g    []*big.Float // g[i] = p^i (1−p)^{k−i}, i = 0..k
	pOut *big.Float   // P*out; exactly zero when the annulus covers [0..k]

	// Derived float64 summaries. Single-string probabilities are of order
	// 2^−k and underflow float64 for large k, so they are also exposed as
	// natural logarithms, which never underflow.
	POutF            float64 // P*out (0 if underflowed; see LogPOut)
	LogPOut          float64 // ln P*out; −Inf when the complement is empty
	InMass           float64 // Pr[R(b) ∈ Ann(b)]: Σ_{i∈[LB..UB]} C(k,i)·g(i)
	UnifInMass       float64 // uniform-measure of the annulus: Σ_{i∈[LB..UB]} C(k,i)/2^k
	CGap             float64 // exact preservation gap (Eq 42)
	PMin, PMax       float64 // extreme single-string output probabilities (may underflow)
	LogPMin, LogPMax float64 // their natural logarithms (exact at any k)
	EpsActual        float64 // realized LogPMax − LogPMin (≤ ε by Lemma 5.2 asymptotics)

	cdfOnce       sync.Once
	complementCDF []float64 // lazily built by ComplementDistCDF
}

// NewAnnulus computes the exact distribution for the given geometry.
// Bounds outside [0..k] are clamped; an inverted range is an error.
func NewAnnulus(k int, p float64, lb, ub int) (*Annulus, error) {
	if k < 1 {
		return nil, errors.New("probmath: k must be >= 1")
	}
	if !(p > 0 && p < 1) {
		return nil, fmt.Errorf("probmath: flip probability %v outside (0,1)", p)
	}
	if lb < 0 {
		lb = 0
	}
	if ub > k {
		ub = k
	}
	if lb > ub {
		return nil, fmt.Errorf("probmath: empty annulus [%d..%d]", lb, ub)
	}
	a := &Annulus{K: k, P: p, LB: lb, UB: ub, prec: uint(k) + 128}
	a.compute()
	return a, nil
}

func (a *Annulus) newFloat() *big.Float { return new(big.Float).SetPrec(a.prec) }

func (a *Annulus) compute() {
	k := a.K
	p := a.newFloat().SetFloat64(a.P)
	q := a.newFloat().Sub(big.NewFloat(1).SetPrec(a.prec), p) // 1−p
	ratio := a.newFloat().Quo(p, q)                           // p/(1−p) = e^{−ε̃}

	// g(i) by the recurrence g(0) = (1−p)^k, g(i) = g(i−1)·p/(1−p).
	a.g = make([]*big.Float, k+1)
	g0 := big.NewFloat(1).SetPrec(a.prec)
	for i := 0; i < k; i++ {
		g0.Mul(g0, q)
	}
	a.g[0] = g0
	for i := 1; i <= k; i++ {
		a.g[i] = a.newFloat().Mul(a.g[i-1], ratio)
	}

	// Annulus mass under R, uniform annulus mass, and the complement sums.
	inMass := a.newFloat()
	inCount := new(big.Int)
	for i := a.LB; i <= a.UB; i++ {
		t := a.newFloat().Mul(binom.ChooseFloat(k, i, a.prec), a.g[i])
		inMass.Add(inMass, t)
		inCount.Add(inCount, binom.Choose(k, i))
	}
	totalCount := new(big.Int).Lsh(big.NewInt(1), uint(k)) // 2^k
	outCount := new(big.Int).Sub(totalCount, inCount)
	outMass := a.newFloat().Sub(big.NewFloat(1).SetPrec(a.prec), inMass)

	a.pOut = a.newFloat()
	a.LogPOut = math.Inf(-1)
	if outCount.Sign() > 0 {
		a.pOut.Quo(outMass, a.newFloat().SetInt(outCount))
		a.LogPOut = bigLog(a.pOut)
	}
	a.POutF, _ = a.pOut.Float64()
	a.InMass, _ = inMass.Float64()
	uim := a.newFloat().Quo(a.newFloat().SetInt(inCount), a.newFloat().SetInt(totalCount))
	a.UnifInMass, _ = uim.Float64()

	// Exact preservation gap. From the derivation in Appendix A.1.2,
	// generalized to arbitrary integer bounds (the identity
	// Σ_{i=0}^{k} C(k,i)(k−2i)/k = 0 converts the complement sum):
	//   c_gap = Σ_{i=LB}^{UB} C(k,i)·(g(i) − P*out)·(k−2i)/k.
	cg := a.newFloat()
	for i := a.LB; i <= a.UB; i++ {
		diff := a.newFloat().Sub(a.g[i], a.pOut)
		diff.Mul(diff, binom.ChooseFloat(k, i, a.prec))
		diff.Mul(diff, a.newFloat().SetInt64(int64(k-2*i)))
		cg.Add(cg, diff)
	}
	cg.Quo(cg, a.newFloat().SetInt64(int64(k)))
	a.CGap, _ = cg.Float64()

	// Extreme single-string probabilities. g decreases in i, so over the
	// annulus the extremes are g(LB) and g(UB); outside, every string has
	// probability P*out (when the complement is non-empty). Comparisons and
	// the realized privacy ratio are done in log space because the values
	// are of order 2^−k.
	a.LogPMin, a.LogPMax = a.LogG(a.UB), a.LogG(a.LB)
	if outCount.Sign() > 0 {
		a.LogPMin = math.Min(a.LogPMin, a.LogPOut)
		a.LogPMax = math.Max(a.LogPMax, a.LogPOut)
	}
	a.PMin, a.PMax = math.Exp(a.LogPMin), math.Exp(a.LogPMax)
	a.EpsActual = a.LogPMax - a.LogPMin
}

// bigLog returns the natural logarithm of a positive big.Float, using the
// decomposition f = m·2^e with m ∈ [1/2, 1).
func bigLog(f *big.Float) float64 {
	if f.Sign() <= 0 {
		return math.Inf(-1)
	}
	m := new(big.Float)
	e := f.MantExp(m)
	mf, _ := m.Float64()
	return math.Log(mf) + float64(e)*math.Ln2
}

// LogG returns ln g(i) = i·ln p + (k−i)·ln(1−p), exact at any k.
func (a *Annulus) LogG(i int) float64 {
	if i < 0 || i > a.K {
		panic("probmath: distance out of range")
	}
	return float64(i)*math.Log(a.P) + float64(a.K-i)*math.Log1p(-a.P)
}

// LogOutputProb returns ln OutputProb(i) without float64 underflow.
func (a *Annulus) LogOutputProb(i int) float64 {
	if i < 0 || i > a.K {
		panic("probmath: distance out of range")
	}
	if a.Inside(i) {
		return a.LogG(i)
	}
	return a.LogPOut
}

// G returns g(i) = p^i(1−p)^{k−i} as a float64. Out-of-range i panics.
func (a *Annulus) G(i int) float64 {
	f, _ := a.g[i].Float64()
	return f
}

// OutputProb returns the probability that R̃(b) equals a specific string
// at Hamming distance i from b: g(i) inside the annulus, P*out outside.
func (a *Annulus) OutputProb(i int) float64 {
	if i < 0 || i > a.K {
		panic("probmath: distance out of range")
	}
	if i >= a.LB && i <= a.UB {
		return a.G(i)
	}
	return a.POutF
}

// DistanceProb returns Pr[‖R̃(b) − b‖₀ = i]: C(k,i)·OutputProb(i),
// computed in log space so it is accurate at any k. Only tests call it:
// core's TestComposedDistanceDistribution checks the sampler against it.
func (a *Annulus) DistanceProb(i int) float64 {
	lo := a.LogOutputProb(i)
	if math.IsInf(lo, -1) {
		return 0
	}
	return math.Exp(binom.LogChoose(a.K, i) + lo)
}

// Inside reports whether distance i lies in the annulus.
func (a *Annulus) Inside(i int) bool { return i >= a.LB && i <= a.UB }

// ComplementEmpty reports whether the annulus covers all of [0..k], in
// which case R̃ never resamples and degenerates to independent flips.
func (a *Annulus) ComplementEmpty() bool { return a.LB == 0 && a.UB == a.K }

// ComplementDistCDF returns the cumulative distribution over distances
// i ∈ [0..k] of a uniform sample from {−1,1}^k \ Ann(b): weights are
// C(k,i) for i outside [LB..UB] and zero inside. The result is cached;
// the build is guarded by a sync.Once so one Annulus can serve many
// randomizer instances on concurrent ingestion shards. It panics if the
// complement is empty.
func (a *Annulus) ComplementDistCDF() []float64 {
	if a.ComplementEmpty() {
		panic("probmath: complement of annulus is empty")
	}
	a.cdfOnce.Do(a.buildComplementCDF)
	return a.complementCDF
}

func (a *Annulus) buildComplementCDF() {
	k := a.K
	logs := make([]float64, 0, k+1)
	idx := make([]int, 0, k+1)
	for i := 0; i <= k; i++ {
		if a.Inside(i) {
			continue
		}
		logs = append(logs, binom.LogChoose(k, i))
		idx = append(idx, i)
	}
	lz := binom.LogSumExp(logs)
	cdf := make([]float64, k+1)
	run := 0.0
	j := 0
	for i := 0; i <= k; i++ {
		if j < len(idx) && idx[j] == i {
			run += math.Exp(logs[j] - lz)
			j++
		}
		cdf[i] = run
	}
	cdf[k] = 1 // guard rounding
	a.complementCDF = cdf
}

// MarginalPrefix returns the probability that the first sigma coordinates
// of R̃(1^k) equal a fixed pattern containing m1 entries equal to −1:
//
//	Σ_{m2=0}^{k−sigma} C(k−sigma, m2) · OutputProb(m1 + m2).
//
// This is the quantity needed to compute the exact output distribution of
// the online FutureRand on inputs with support size sigma ≤ k (§5.4).
func (a *Annulus) MarginalPrefix(sigma, m1 int) float64 {
	if sigma < 0 || sigma > a.K || m1 < 0 || m1 > sigma {
		panic("probmath: MarginalPrefix arguments out of range")
	}
	sum := a.newFloat()
	for m2 := 0; m2 <= a.K-sigma; m2++ {
		i := m1 + m2
		var q *big.Float
		if a.Inside(i) {
			q = a.g[i]
		} else {
			q = a.pOut
		}
		t := a.newFloat().Mul(binom.ChooseFloat(a.K-sigma, m2, a.prec), q)
		sum.Add(sum, t)
	}
	f, _ := sum.Float64()
	return f
}

// CGapLogSpace recomputes c_gap with float64 log-space arithmetic. It is
// independent of the big.Float path and exists to cross-check it; the two
// agree to ~1e−12 relative error in tests. Outside them only the root
// package's BenchmarkCGapLogSpace calls it.
func (a *Annulus) CGapLogSpace() float64 {
	k := a.K
	lp := math.Log(a.P)
	lq := math.Log1p(-a.P)
	logG := func(i int) float64 { return float64(i)*lp + float64(k-i)*lq }

	// P*out in log space.
	var lOut float64
	hasOut := !a.ComplementEmpty()
	if hasOut {
		var massTerms, countTerms []float64
		for i := 0; i <= k; i++ {
			if a.Inside(i) {
				continue
			}
			lc := binom.LogChoose(k, i)
			massTerms = append(massTerms, lc+logG(i))
			countTerms = append(countTerms, lc)
		}
		lOut = binom.LogSumExp(massTerms) - binom.LogSumExp(countTerms)
	}

	// Signed sum of C(k,i)·(g(i) − P*out)·(k−2i)/k over the annulus.
	var pos, neg []float64
	add := func(l float64, sign int) {
		if sign > 0 {
			pos = append(pos, l)
		} else {
			neg = append(neg, l)
		}
	}
	for i := a.LB; i <= a.UB; i++ {
		lc := binom.LogChoose(k, i)
		w := float64(k-2*i) / float64(k)
		lw := math.Log(math.Abs(w))
		if w == 0 {
			continue
		}
		signW := 1
		if w < 0 {
			signW = -1
		}
		add(lc+logG(i)+lw, signW)
		if hasOut {
			add(lc+lOut+lw, -signW)
		}
	}
	return math.Exp(binom.LogSumExp(pos)) - math.Exp(binom.LogSumExp(neg))
}

// TheoreticalBound returns the Lemma 4.6 / Theorem 4.1 high-probability
// ℓ∞ bound for the FutureRand protocol at the workload's parameters,
// union-bounded over all d periods at failure probability beta.
func TheoreticalBound(n, d, k int, eps, beta float64) (float64, error) {
	p, err := NewFutureRand(max(k, 1), eps)
	if err != nil {
		return 0, err
	}
	return HoeffdingErrorBound(n, d, p.CGap, beta/float64(d)), nil
}
