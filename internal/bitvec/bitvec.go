// Package bitvec implements packed vectors over the alphabet {−1, +1},
// the output/input space of the composed randomizer R̃ (Section 5 of the
// paper). A set bit encodes −1 and a clear bit encodes +1, so Hamming
// (ℓ0) distance between two vectors is the popcount of the XOR of their
// words, and the all-ones vector 1^k of the paper is the zero bit pattern.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"

	"rtf/internal/rng"
)

// Vec is a fixed-length vector in {−1, +1}^k. The zero value is unusable;
// construct with New, Ones, FromSigns or Uniform.
type Vec struct {
	k int
	w []uint64
}

// New returns the all-(+1) vector of length k (the paper's 1^k).
func New(k int) Vec {
	if k < 0 {
		panic("bitvec: negative length")
	}
	return Vec{k: k, w: make([]uint64, (k+63)/64)}
}

// Ones is an alias for New: the vector 1^k used to seed the
// pre-computation b̃ = R̃(1^k).
func Ones(k int) Vec { return New(k) }

// FromSigns builds a Vec from a slice of ±1 entries. It panics on any
// entry outside {−1, +1}. Only tests call it, core's
// TestComposedSampleMatchesExactDistribution among them.
func FromSigns(s []int8) Vec {
	v := New(len(s))
	for i, x := range s {
		switch x {
		case 1:
			// +1 is the default (clear bit).
		case -1:
			v.w[i/64] |= 1 << uint(i%64)
		default:
			panic(fmt.Sprintf("bitvec: entry %d is %d, want ±1", i, x))
		}
	}
	return v
}

// Uniform returns a uniformly random vector in {−1, +1}^k. Only tests
// call it: core's sampler tests (TestComposedDistanceDistribution,
// TestSampleInputUnmodified among them) draw their inputs with it.
func Uniform(g *rng.RNG, k int) Vec {
	v := New(k)
	for i := range v.w {
		v.w[i] = g.Uint64()
	}
	v.maskTail()
	return v
}

// maskTail clears the unused high bits of the last word so that popcounts
// and equality work on whole words.
func (v Vec) maskTail() {
	if r := v.k % 64; r != 0 && len(v.w) > 0 {
		v.w[len(v.w)-1] &= 1<<uint(r) - 1
	}
}

// Len returns the number of coordinates.
func (v Vec) Len() int { return v.k }

// At returns the i-th coordinate as −1 or +1. Coordinates are 0-indexed.
func (v Vec) At(i int) int8 {
	if i < 0 || i >= v.k {
		panic("bitvec: index out of range")
	}
	if v.w[i/64]&(1<<uint(i%64)) != 0 {
		return -1
	}
	return 1
}

// Flip negates coordinate i in place.
func (v Vec) Flip(i int) {
	if i < 0 || i >= v.k {
		panic("bitvec: index out of range")
	}
	v.w[i/64] ^= 1 << uint(i%64)
}

// Hamming returns ‖v − u‖₀, the number of coordinates where v and u
// differ. It panics if lengths differ.
func (v Vec) Hamming(u Vec) int {
	if v.k != u.k {
		panic("bitvec: length mismatch")
	}
	d := 0
	for i := range v.w {
		d += bits.OnesCount64(v.w[i] ^ u.w[i])
	}
	return d
}

// WeightMinus returns the number of −1 coordinates (distance to 1^k).
func (v Vec) WeightMinus() int {
	d := 0
	for i := range v.w {
		d += bits.OnesCount64(v.w[i])
	}
	return d
}

// FlipEach negates every coordinate of v independently with probability
// p, in place, and returns v. This is the i.i.d. application of the
// basic randomizer R (Eq 14) to each coordinate, with flip probability
// p = 1/(e^ε̃+1).
func (v Vec) FlipEach(g *rng.RNG, p float64) Vec {
	for i := 0; i < v.k; i++ {
		if g.Bernoulli(p) {
			v.Flip(i)
		}
	}
	return v
}

// Times multiplies v coordinatewise by u, in place, and returns v. It
// panics if lengths differ.
func (v Vec) Times(u Vec) Vec {
	if v.k != u.k {
		panic("bitvec: length mismatch")
	}
	for i := range v.w {
		v.w[i] ^= u.w[i]
	}
	return v
}

// FlipSubset negates the coordinates of v listed in idx, in place, and
// returns v. Indices must be distinct and in range.
func (v Vec) FlipSubset(idx []int) Vec {
	for _, i := range idx {
		v.Flip(i)
	}
	return v
}

// String renders v as a compact string of '+' and '-' characters.
func (v Vec) String() string {
	var b strings.Builder
	b.Grow(v.k)
	for i := 0; i < v.k; i++ {
		if v.At(i) == 1 {
			b.WriteByte('+')
		} else {
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Index returns the integer whose bits are the −1 positions of v; it is a
// bijection {−1,+1}^k → [0, 2^k) usable as an array index for exhaustive
// enumeration. It panics if k > 62. Only tests call it: core's
// TestSampleComplementUniform tallies sampled vectors by it.
func (v Vec) Index() int {
	if v.k > 62 {
		panic("bitvec: Index requires k <= 62")
	}
	if len(v.w) == 0 {
		return 0
	}
	return int(v.w[0])
}

// FromIndex inverts Index: it builds the length-k vector whose −1
// positions are the set bits of x. It panics if k > 62 or x >= 2^k.
// Only tests call it: core's TestComposedSampleMatchesExactDistribution
// and TestSampleComplementUniform enumerate {−1,+1}^k with it.
func FromIndex(k int, x int) Vec {
	if k > 62 {
		panic("bitvec: FromIndex requires k <= 62")
	}
	if x < 0 || (k < 62 && x >= 1<<uint(k)) {
		panic("bitvec: index out of range for length")
	}
	v := New(k)
	if len(v.w) > 0 {
		v.w[0] = uint64(x)
	}
	return v
}
