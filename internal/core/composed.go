package core

import (
	"sort"

	"rtf/internal/bitvec"
	"rtf/internal/probmath"
	"rtf/internal/rng"
)

// Composed is the offline composed randomizer R̃ of Algorithm 3
// (procedure "Composed Randomizer"): apply the basic randomizer R
// independently to each coordinate of b ∈ {−1,1}^k; if the result falls
// outside the annulus Ann(b) of Hamming distances [LB..UB], replace it
// with a uniform sample from {−1,1}^k \ Ann(b).
//
// The annulus geometry (and therefore whether this is the paper's
// randomizer or Bun et al.'s) is fixed by the probmath.Annulus it is
// built from. Composed is immutable and safe for concurrent use; all
// randomness comes from the caller's RNG.
type Composed struct {
	ann *probmath.Annulus
}

// NewComposed wraps an annulus in its sampler.
func NewComposed(ann *probmath.Annulus) *Composed {
	if ann == nil {
		panic("core: nil annulus")
	}
	return &Composed{ann: ann}
}

// Sample draws R̃(b) = b ⊙ R̃(1^k): the flips and the annulus test depend
// only on which coordinates differ from the input, which is the symmetry
// the pre-computation technique rests on. The input must have length k;
// it is not modified.
func (c *Composed) Sample(g *rng.RNG, b bitvec.Vec) bitvec.Vec {
	if b.Len() != c.ann.K {
		panic("core: input length does not match annulus k")
	}
	return c.SampleOnes(g).Times(b)
}

// SampleOnes draws R̃(1^k) — the b̃ of M.init — allocating nothing but
// the vector it returns (and, outside the annulus, the subset drawn).
func (c *Composed) SampleOnes(g *rng.RNG) bitvec.Vec {
	bp := bitvec.Ones(c.ann.K).FlipEach(g, c.ann.P)
	if c.ann.Inside(bp.WeightMinus()) {
		return bp
	}
	return c.complementOf(g, bp.Times(bp)) // v ⊙ v = 1^k: reuse the rejected vector
}

// complementOf is SampleComplement at b = 1^k, written into the given
// all-ones vector.
func (c *Composed) complementOf(g *rng.RNG, ones bitvec.Vec) bitvec.Vec {
	cdf := c.ann.ComplementDistCDF()
	u := g.Float64()
	i := sort.SearchFloat64s(cdf, u)
	// SearchFloat64s returns the first index with cdf[idx] >= u; equal
	// values inside the annulus carry zero mass so the result is always a
	// complement distance.
	if i > c.ann.K {
		i = c.ann.K
	}
	return ones.FlipSubset(g.KSubset(c.ann.K, i))
}
