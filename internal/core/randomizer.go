// Package core implements the client-side randomizers of the paper: the
// basic randomized response R (Eq 14), the independent per-coordinate
// randomizer of Example 4.2, the composed randomizer R̃ with annulus
// resampling (Algorithm 3), and the online FutureRand built from R̃ via
// the pre-computation technique (Sections 5.2–5.4). The composition of
// Bun, Nelson and Stemmer (Appendix A.2) is provided through the same
// machinery for head-to-head comparison.
//
// A Factory holds the parameters shared by all users (including the
// expensive exact annulus computation); Instance is the per-user online
// randomizer M, fed one value per reporting period.
package core

import (
	"fmt"

	"rtf/internal/bitvec"
	"rtf/internal/probmath"
	"rtf/internal/rng"
)

// Instance is the online randomizer M of Section 4.2, for every
// randomizer in the package: the j-th call to Perturb is M^(j)(v_j), which
// consumes the next sequence value in {−1, 0, +1} and emits a ±1 report.
// A zero is answered with a fresh fair coin (Property III); a non-zero v
// with v·b̃_nnz when the factory pre-computed a noise vector (the composed
// randomizers) and with an independent keepProb-coin otherwise. It is a
// value, so a client can hold it inline; Perturb enforces the input
// contract (at most L values, at most k of them non-zero) by panicking,
// since a violation means protocol code is broken, not user error.
type Instance struct {
	l, k      int // k == 0 disables the non-zero cap (basic randomizer)
	seen, nnz int
	g         *rng.RNG
	btilde    bitvec.Vec // b̃ = R̃(1^k), drawn at M.init; empty if independent
	keepProb  float64    // independent: chance a non-zero keeps its sign
}

// Perturb perturbs the next sequence value.
func (m *Instance) Perturb(v int8) int8 {
	checkValue(v)
	m.seen++
	if m.seen > m.l {
		panic(fmt.Sprintf("core: more than L=%d inputs", m.l))
	}
	if v == 0 {
		return m.g.Sign()
	}
	m.nnz++
	if m.k > 0 && m.nnz > m.k {
		panic(fmt.Sprintf("core: more than k=%d non-zero inputs", m.k))
	}
	if m.btilde.Len() > 0 {
		return v * m.btilde.At(m.nnz-1)
	}
	if m.g.Bernoulli(m.keepProb) {
		return v
	}
	return -v
}

// Factory builds per-user randomizer instances with shared parameters.
type Factory interface {
	// NewInstance returns a fresh Instance drawing randomness from g.
	NewInstance(g *rng.RNG) Instance
	// CGap returns the exact preservation gap c_gap of Property II; the
	// server divides by it to unbias estimates (Algorithm 2, line 5).
	CGap() float64
	// Name identifies the randomizer in experiment output.
	Name() string
}

// checkValue panics unless v ∈ {−1, 0, +1}.
func checkValue(v int8) {
	if v < -1 || v > 1 {
		panic(fmt.Sprintf("core: input value %d outside {-1,0,1}", v))
	}
}

// ---------------------------------------------------------------------------
// Basic randomizer R (Warner's randomized response, Eq 14).

// BasicFactory perturbs each non-zero value independently with a fixed
// per-report budget ε̃, and emits uniform ±1 for zeros. It is the
// randomizer used by the Erlingsson et al. baseline (with ε̃ = ε/2 after
// change-sampling).
type BasicFactory struct {
	l        int
	epsTilde float64
	keepProb float64
	cgap     float64
}

// NewBasicFactory returns a basic-randomizer factory for sequences of
// length L and per-report budget epsTilde > 0.
func NewBasicFactory(l int, epsTilde float64) (*BasicFactory, error) {
	if l < 1 {
		return nil, fmt.Errorf("core: sequence length %d < 1", l)
	}
	if !(epsTilde > 0) {
		return nil, fmt.Errorf("core: per-report budget %v must be positive", epsTilde)
	}
	c := probmath.CGapBasic(epsTilde)
	return &BasicFactory{
		l:        l,
		epsTilde: epsTilde,
		keepProb: (1 + c) / 2, // e^ε̃/(e^ε̃+1)
		cgap:     c,
	}, nil
}

// CGap implements Factory.
func (f *BasicFactory) CGap() float64 { return f.cgap }

// Name implements Factory.
func (f *BasicFactory) Name() string { return "basic" }

// NewInstance implements Factory.
func (f *BasicFactory) NewInstance(g *rng.RNG) Instance {
	return Instance{l: f.l, keepProb: f.keepProb, g: g}
}

// ---------------------------------------------------------------------------
// Independent per-coordinate randomizer (Example 4.2).

// IndependentFactory is the naive composition of Example 4.2: every
// non-zero coordinate is perturbed independently with budget ε/k, giving
// c_gap = (e^{ε/k}−1)/(e^{ε/k}+1) ∈ Ω(ε/k) — the √k-worse baseline that
// FutureRand improves on.
type IndependentFactory struct {
	l, k     int
	eps      float64
	keepProb float64
	cgap     float64
}

// NewIndependentFactory validates parameters and precomputes probabilities.
func NewIndependentFactory(l, k int, eps float64) (*IndependentFactory, error) {
	if err := checkLK(l, k); err != nil {
		return nil, err
	}
	if !(eps > 0) {
		return nil, fmt.Errorf("core: epsilon %v must be positive", eps)
	}
	c := probmath.CGapIndependent(k, eps)
	return &IndependentFactory{
		l:        l,
		k:        k,
		eps:      eps,
		keepProb: (1 + c) / 2,
		cgap:     c,
	}, nil
}

// CGap implements Factory.
func (f *IndependentFactory) CGap() float64 { return f.cgap }

// Name implements Factory.
func (f *IndependentFactory) Name() string { return "independent-eps/k" }

// NewInstance implements Factory.
func (f *IndependentFactory) NewInstance(g *rng.RNG) Instance {
	return Instance{l: f.l, k: f.k, keepProb: f.keepProb, g: g}
}

func checkLK(l, k int) error {
	if l < 1 {
		return fmt.Errorf("core: sequence length %d < 1", l)
	}
	if k < 1 {
		return fmt.Errorf("core: sparsity bound %d < 1", k)
	}
	return nil
}
