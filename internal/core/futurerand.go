package core

import (
	"fmt"

	"rtf/internal/probmath"
	"rtf/internal/rng"
)

// ComposedFactory is the online randomizer built from a composed
// randomizer R̃ via the paper's pre-computation technique (Section 5.3,
// Algorithm 3): at initialization it draws b̃ = R̃(1^k); thereafter the
// j-th non-zero input v is answered v·b̃_nnz on the fly, and zeros are
// answered with fresh uniform ±1 (Property III). Inputs with support
// smaller than k are handled unchanged (Section 5.4).
//
// With the paper's annulus (probmath.NewFutureRand) this is FutureRand,
// the main contribution; with Bun et al.'s annulus (probmath.NewBun) it
// is their composition made online by the same trick, used as a baseline.
type ComposedFactory struct {
	l, k     int
	params   *probmath.Params
	composed *Composed
	name     string
}

// NewFutureRandFactory builds FutureRand (Theorem 4.4) for sequences of
// length L with at most k non-zero entries and privacy budget eps ≤ 1.
func NewFutureRandFactory(l, k int, eps float64) (*ComposedFactory, error) {
	if err := checkLK(l, k); err != nil {
		return nil, err
	}
	p, err := probmath.NewFutureRand(k, eps)
	if err != nil {
		return nil, err
	}
	return &ComposedFactory{l: l, k: k, params: p, composed: NewComposed(p.Annulus), name: "futurerand"}, nil
}

// NewFactoryFromParams builds an online composed randomizer for length-L
// sequences from an already-computed parameter set. The annulus depends
// only on (k, ε), so protocol code building one factory per order shares
// a single exact computation through this constructor.
func NewFactoryFromParams(l int, p *probmath.Params, name string) (*ComposedFactory, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil params")
	}
	if err := checkLK(l, p.K); err != nil {
		return nil, err
	}
	return &ComposedFactory{l: l, k: p.K, params: p, composed: NewComposed(p.Annulus), name: name}, nil
}

// CGap implements Factory: the exact preservation gap of the annulus.
func (f *ComposedFactory) CGap() float64 { return f.params.CGap }

// Name implements Factory.
func (f *ComposedFactory) Name() string { return f.name }

// Composed exposes the underlying offline sampler R̃ (for tests and the
// offline-equivalence experiment E12).
func (f *ComposedFactory) Composed() *Composed { return f.composed }

// NewInstance implements Factory. It performs M.init(L, k, ε): the
// composed randomizer is invoked once on the all-ones vector, and the
// result is kept for the lifetime of the instance. Thereafter the j-th
// non-zero input v is answered v·b̃_j (Algorithm 3, lines 12–17).
func (f *ComposedFactory) NewInstance(g *rng.RNG) Instance {
	return Instance{l: f.l, k: f.k, g: g, btilde: f.composed.SampleOnes(g)}
}
