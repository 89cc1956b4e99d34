// Package sparse implements the data-derivative view of Section 3 of the
// paper: the transform from a user's Boolean value stream st_u ∈ {0,1}^d
// to its discrete derivative X_u ∈ {−1,0,1}^d (Definition 3.1), partial
// sums over dyadic intervals (Definition 3.4), and the endpoint identity
// of Observation 3.7 that lets a client compute any partial sum from two
// stream values in O(1).
package sparse

import (
	"fmt"

	"rtf/internal/dyadic"
)

// Derivative returns X_u[t] = st[t] − st[t−1] for t = 1..d, with the
// convention st[0] = 0. The input is a 0/1 stream indexed from 0
// (position i holds st[i+1] in paper notation); entries outside {0,1}
// cause a panic.
func Derivative(st []uint8) []int8 {
	x := make([]int8, len(st))
	prev := uint8(0)
	for i, v := range st {
		if v > 1 {
			panic(fmt.Sprintf("sparse: stream value %d at position %d, want 0/1", v, i))
		}
		x[i] = int8(v) - int8(prev)
		prev = v
	}
	return x
}

// Integrate inverts Derivative: st[t] = Σ_{t' ≤ t} X[t'].
// It panics if any prefix sum leaves {0,1}.
func Integrate(x []int8) []uint8 {
	st := make([]uint8, len(x))
	cur := int8(0)
	for i, v := range x {
		cur += v
		if cur != 0 && cur != 1 {
			panic(fmt.Sprintf("sparse: derivative does not integrate to a 0/1 stream at position %d", i))
		}
		st[i] = uint8(cur)
	}
	return st
}

// NumChanges returns ‖X_u‖₀, the number of value changes in the stream
// (counting a non-zero initial value as a change from the implicit
// st[0] = 0, exactly as Definition 3.1 does).
func NumChanges(st []uint8) int {
	n := 0
	prev := uint8(0)
	for _, v := range st {
		if v != prev {
			n++
		}
		prev = v
	}
	return n
}

// PartialSum returns S_u(I) = Σ_{t ∈ I} X_u[t] for the dyadic interval I,
// computed from stream endpoints via Observation 3.7:
// S_u(I_{h,j}) = st[j·2^h] − st[(j−1)·2^h] ∈ {−1, 0, 1}.
func PartialSum(st []uint8, iv dyadic.Interval) int8 {
	end := iv.End()
	if end > len(st) {
		panic(fmt.Sprintf("sparse: interval %v beyond stream length %d", iv, len(st)))
	}
	var left uint8
	if s := iv.Start(); s > 1 {
		left = st[s-2] // st[(j−1)·2^h] in paper's 1-based indexing
	}
	return int8(st[end-1]) - int8(left)
}

// PartialSumsAtOrder returns all partial sums of order h:
// [S_u(I_{h,1}), …, S_u(I_{h,d/2^h})].
func PartialSumsAtOrder(st []uint8, h int) []int8 {
	d := len(st)
	L := dyadic.CountAtOrder(d, h)
	out := make([]int8, L)
	for j := 1; j <= L; j++ {
		out[j-1] = PartialSum(st, dyadic.Interval{Order: h, Index: j})
	}
	return out
}

// SupportAtOrder returns the number of non-zero partial sums of order h.
// By Observation 3.6 this never exceeds NumChanges(st).
func SupportAtOrder(st []uint8, h int) int {
	n := 0
	for _, v := range PartialSumsAtOrder(st, h) {
		if v != 0 {
			n++
		}
	}
	return n
}
