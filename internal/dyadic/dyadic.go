// Package dyadic implements the dyadic-interval machinery of Section 3 of
// the paper: intervals I_{h,j} (Definition 3.2), the decomposition C(t) of
// a prefix [1..t] into at most ⌈log t⌉ disjoint dyadic intervals with
// distinct orders (Fact 3.8), and flat tree indexing used by the server to
// store one accumulator per interval.
//
// Throughout, d is the number of time periods and must be a power of two;
// time periods and interval indices j are 1-based, matching the paper.
package dyadic

import (
	"fmt"
	"math/bits"
)

// Interval is the dyadic interval I_{h,j} = {(j−1)·2^h + 1, …, j·2^h}.
type Interval struct {
	Order int // h ∈ [0 .. log d]
	Index int // j ∈ [1 .. d/2^h]
}

// Start returns the first time period covered by the interval.
func (iv Interval) Start() int { return (iv.Index-1)<<uint(iv.Order) + 1 }

// End returns the last time period covered by the interval.
func (iv Interval) End() int { return iv.Index << uint(iv.Order) }

// String renders the interval as I{h,j}=[start..end].
func (iv Interval) String() string {
	return fmt.Sprintf("I{%d,%d}=[%d..%d]", iv.Order, iv.Index, iv.Start(), iv.End())
}

// IsPow2 reports whether d is a positive power of two.
func IsPow2(d int) bool { return d > 0 && d&(d-1) == 0 }

// Log2 returns log₂ d for a power of two d, and panics otherwise.
func Log2(d int) int {
	if !IsPow2(d) {
		panic(fmt.Sprintf("dyadic: %d is not a positive power of two", d))
	}
	return bits.TrailingZeros(uint(d))
}

// NumOrders returns 1 + log₂ d, the number of distinct orders over [d].
func NumOrders(d int) int { return Log2(d) + 1 }

// CountAtOrder returns |ISet[h]| = d / 2^h, the number of dyadic intervals
// of order h over [d].
func CountAtOrder(d, h int) int {
	logd := Log2(d)
	if h < 0 || h > logd {
		panic(fmt.Sprintf("dyadic: order %d out of range [0..%d]", h, logd))
	}
	return d >> uint(h)
}

// TotalIntervals returns |ISet| = 2d − 1, the number of dyadic intervals
// over [d] across all orders.
func TotalIntervals(d int) int {
	Log2(d) // validate
	return 2*d - 1
}

// All enumerates every dyadic interval over [d], ordered by increasing
// order h, then by index j.
func All(d int) []Interval {
	out := make([]Interval, 0, TotalIntervals(d))
	for h := 0; h <= Log2(d); h++ {
		for j := 1; j <= CountAtOrder(d, h); j++ {
			out = append(out, Interval{Order: h, Index: j})
		}
	}
	return out
}

// MaxCover is the length of the longest cover Decompose or
// DecomposeRange returns at a horizon below 2^32: a range needs at most
// 2·log₂ d intervals. It sizes the stack buffers the Append forms are
// called with on read paths that must not allocate; a longer cover
// still appends correctly, onto the heap.
const MaxCover = 64

// Decompose returns C(t): the minimum collection of disjoint dyadic
// intervals with distinct orders whose union is [1..t] (Fact 3.8),
// ordered left to right (decreasing order h). It panics if t is outside
// [1..d] or d is not a power of two.
func Decompose(t, d int) []Interval {
	return AppendDecompose(make([]Interval, 0, bits.OnesCount(uint(t))), t, d)
}

// AppendDecompose appends C(t) to dst and returns the extended slice:
// Decompose into a caller's buffer.
//
// The construction reads the binary representation of t: each set bit
// 2^h contributes the next interval of order h after the prefix covered
// so far.
func AppendDecompose(dst []Interval, t, d int) []Interval {
	logd := Log2(d)
	if t < 1 || t > d {
		panic(fmt.Sprintf("dyadic: t=%d out of range [1..%d]", t, d))
	}
	covered := 0
	for h := logd; h >= 0; h-- {
		if t&(1<<uint(h)) != 0 {
			covered += 1 << uint(h)
			dst = append(dst, Interval{Order: h, Index: covered >> uint(h)})
		}
	}
	return dst
}

// DecomposeRange returns a minimum collection of disjoint dyadic
// intervals whose union is [l..r] (1 ≤ l ≤ r ≤ d). As noted after
// Fact 3.8 in the paper, a general range needs at most 2·⌈log₂(r−l+1)⌉
// intervals and, unlike prefix decompositions, may repeat orders. The
// result is ordered left to right.
func DecomposeRange(l, r, d int) []Interval {
	return AppendDecomposeRange(make([]Interval, 0, 2*bits.Len(uint(max(r-l+1, 0)))), l, r, d)
}

// AppendDecomposeRange appends DecomposeRange(l, r, d) to dst and
// returns the extended slice.
//
// The construction is the classic segment-tree walk: grow greedily from
// l with the largest aligned block that fits, which yields blocks of
// increasing then decreasing order.
func AppendDecomposeRange(dst []Interval, l, r, d int) []Interval {
	Log2(d) // validate d
	if l < 1 || r > d || l > r {
		panic(fmt.Sprintf("dyadic: range [%d..%d] invalid for d=%d", l, r, d))
	}
	for l <= r {
		// Largest h such that 2^h divides (l−1) and l−1+2^h ≤ r.
		h := 0
		for {
			next := 1 << uint(h+1)
			if (l-1)%next != 0 || l-1+next > r {
				break
			}
			h++
		}
		dst = append(dst, Interval{Order: h, Index: (l-1)>>uint(h) + 1})
		l += 1 << uint(h)
	}
	return dst
}

// Tree provides O(1) flat indexing of all dyadic intervals over [d],
// used by the server to keep one accumulator per interval. Index layout
// is order-major: all order-0 intervals first, then order 1, and so on.
type Tree struct {
	d      int
	logd   int
	offset []int // offset[h] is the flat index of I_{h,1}
}

// NewTree constructs the index for a power-of-two horizon d.
func NewTree(d int) *Tree {
	logd := Log2(d)
	off := make([]int, logd+2)
	for h := 0; h <= logd; h++ {
		off[h+1] = off[h] + CountAtOrder(d, h)
	}
	return &Tree{d: d, logd: logd, offset: off}
}

// D returns the horizon the tree was built for.
func (tr *Tree) D() int { return tr.d }

// Size returns the total number of intervals (2d − 1).
func (tr *Tree) Size() int { return tr.offset[tr.logd+1] }

// FlatIndex maps I_{h,j} to its position in [0, Size()).
func (tr *Tree) FlatIndex(iv Interval) int {
	if iv.Order < 0 || iv.Order > tr.logd {
		panic("dyadic: order out of range")
	}
	if iv.Index < 1 || iv.Index > tr.d>>iv.Order {
		panic("dyadic: index out of range")
	}
	return tr.offset[iv.Order] + iv.Index - 1
}

// IntervalAt inverts FlatIndex. Only tests call it: protocol's
// TestPrefixSeriesEqualsEstimateAt walks a flat sums row with it.
func (tr *Tree) IntervalAt(flat int) Interval {
	if flat < 0 || flat >= tr.Size() {
		panic("dyadic: flat index out of range")
	}
	h := 0
	for flat >= tr.offset[h+1] {
		h++
	}
	return Interval{Order: h, Index: flat - tr.offset[h] + 1}
}
