// Package consistency implements the constrained-inference post-processing
// discussed as the offline advantage in Section 6: the server's noisy
// interval estimates Ŝ(I_{h,j}) are unbiased but mutually inconsistent
// (a parent interval's estimate need not equal the sum of its children's).
// Once all reports are in, a weighted least-squares projection onto the
// consistent subspace (parent = left + right at every node) strictly
// reduces expected squared error and never changes the expectation.
//
// The solver is the classic two-pass tree algorithm (in the style of Hay
// et al.): a bottom-up pass computes the best estimate z_v of each node
// from its own measurement and its subtree, with running variances; a
// top-down pass distributes the remaining discrepancy to children in
// proportion to their variances. With uniform per-level variances the
// result is the exact WLS solution; with the mildly non-uniform variances
// arising from order sampling it is the natural inverse-variance
// approximation, which the ablation experiment E10 evaluates empirically.
package consistency

import (
	"fmt"
	"math"

	"rtf/internal/dyadic"
)

// Smooth projects the flat per-interval estimates onto the consistent
// subspace. est is indexed by tree flat index; varByOrder[h] is the
// variance of every order-h estimate (use math.Inf(1) for orders with no
// reporting users, whose zero estimates carry no information). The
// returned slice is a new flat vector of consistent node values.
func Smooth(tr *dyadic.Tree, est []float64, varByOrder []float64) []float64 {
	d := tr.D()
	logd := dyadic.Log2(d)
	if len(est) != tr.Size() {
		panic(fmt.Sprintf("consistency: %d estimates for tree of size %d", len(est), tr.Size()))
	}
	if len(varByOrder) != logd+1 {
		panic(fmt.Sprintf("consistency: %d variances for %d orders", len(varByOrder), logd+1))
	}
	for h, v := range varByOrder {
		if v < 0 || math.IsNaN(v) {
			panic(fmt.Sprintf("consistency: invalid variance %v at order %d", v, h))
		}
	}

	z := make([]float64, tr.Size())
	vz := make([]float64, tr.Size())

	// Bottom-up: combine each node's own measurement with the sum of its
	// children's combined estimates, weighting by inverse variance.
	for h := 0; h <= logd; h++ {
		vh := varByOrder[h]
		for j := 1; j <= dyadic.CountAtOrder(d, h); j++ {
			fi := tr.FlatIndex(dyadic.Interval{Order: h, Index: j})
			if h == 0 {
				if math.IsInf(vh, 1) {
					// No information at all: canonical 0, so the top-down
					// pass distributes parent mass symmetrically.
					z[fi], vz[fi] = 0, vh
				} else {
					z[fi], vz[fi] = est[fi], vh
				}
				continue
			}
			li := tr.FlatIndex(dyadic.Interval{Order: h - 1, Index: 2*j - 1})
			ri := tr.FlatIndex(dyadic.Interval{Order: h - 1, Index: 2 * j})
			zc := z[li] + z[ri]
			vc := vz[li] + vz[ri]
			switch {
			case math.IsInf(vh, 1) && math.IsInf(vc, 1):
				z[fi], vz[fi] = 0, math.Inf(1)
			case math.IsInf(vh, 1):
				z[fi], vz[fi] = zc, vc
			case vh == 0 || math.IsInf(vc, 1):
				z[fi], vz[fi] = est[fi], vh
			default:
				// vh finite positive; vc finite (possibly 0, in which case
				// IEEE arithmetic yields w = 0 and vz = 0: trust children).
				w := (1 / vh) / (1/vh + 1/vc)
				z[fi] = w*est[fi] + (1-w)*zc
				vz[fi] = 1 / (1/vh + 1/vc)
			}
		}
	}

	// Top-down: fix the root, then push each node's residual discrepancy
	// to its children in proportion to their variances.
	out := make([]float64, tr.Size())
	rootIdx := tr.FlatIndex(dyadic.Interval{Order: logd, Index: 1})
	out[rootIdx] = z[rootIdx]
	for h := logd; h >= 1; h-- {
		for j := 1; j <= dyadic.CountAtOrder(d, h); j++ {
			fi := tr.FlatIndex(dyadic.Interval{Order: h, Index: j})
			li := tr.FlatIndex(dyadic.Interval{Order: h - 1, Index: 2*j - 1})
			ri := tr.FlatIndex(dyadic.Interval{Order: h - 1, Index: 2 * j})
			delta := out[fi] - (z[li] + z[ri])
			vl, vr := vz[li], vz[ri]
			var wl float64
			switch {
			case math.IsInf(vl, 1) && math.IsInf(vr, 1):
				wl = 0.5
			case math.IsInf(vl, 1):
				wl = 1
			case math.IsInf(vr, 1):
				wl = 0
			case vl+vr == 0:
				wl = 0.5
			default:
				wl = vl / (vl + vr)
			}
			out[li] = z[li] + delta*wl
			out[ri] = z[ri] + delta*(1-wl)
		}
	}
	return out
}

// SeriesFromTree converts consistent per-interval values into the
// estimate series â[1..d] via the prefix structure (Observation 3.9).
func SeriesFromTree(tr *dyadic.Tree, vals []float64) []float64 {
	d := tr.D()
	out := make([]float64, d)
	for t := 1; t <= d; t++ {
		low := t & (-t)
		h := dyadic.Log2(low)
		est := vals[tr.FlatIndex(dyadic.Interval{Order: h, Index: t >> uint(h)})]
		if prev := t - low; prev > 0 {
			est += out[prev-1]
		}
		out[t-1] = est
	}
	return out
}
