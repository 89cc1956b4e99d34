package consistency

import (
	"math"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/rng"
)

func TestSmoothProducesConsistentTree(t *testing.T) {
	g := rng.New(1, 2)
	for _, d := range []int{2, 8, 64} {
		tr := dyadic.NewTree(d)
		est := make([]float64, tr.Size())
		for i := range est {
			est[i] = g.Normal() * 10
		}
		vars := make([]float64, dyadic.NumOrders(d))
		for h := range vars {
			vars[h] = 1 + float64(h)
		}
		out := Smooth(tr, est, vars)
		if !IsConsistent(tr, out, 1e-9) {
			t.Errorf("d=%d: smoothed tree not consistent", d)
		}
	}
}

func TestSmoothAlreadyConsistentIsFixedPoint(t *testing.T) {
	// Build a consistent tree from leaf values; Smooth must return it
	// unchanged (it is the WLS projection of itself).
	d := 16
	tr := dyadic.NewTree(d)
	g := rng.New(3, 4)
	est := make([]float64, tr.Size())
	for j := 1; j <= d; j++ {
		est[tr.FlatIndex(dyadic.Interval{Order: 0, Index: j})] = float64(g.IntN(10))
	}
	for h := 1; h <= dyadic.Log2(d); h++ {
		for j := 1; j <= dyadic.CountAtOrder(d, h); j++ {
			l := est[tr.FlatIndex(dyadic.Interval{Order: h - 1, Index: 2*j - 1})]
			r := est[tr.FlatIndex(dyadic.Interval{Order: h - 1, Index: 2 * j})]
			est[tr.FlatIndex(dyadic.Interval{Order: h, Index: j})] = l + r
		}
	}
	vars := []float64{1, 1, 1, 1, 1}
	out := Smooth(tr, est, vars)
	for i := range est {
		if math.Abs(out[i]-est[i]) > 1e-9 {
			t.Fatalf("consistent input changed at node %d: %v -> %v", i, est[i], out[i])
		}
	}
}

func TestSmoothMatchesClosedFormD2(t *testing.T) {
	// d=2: minimize (x1−e1)²/v0 + (x2−e2)²/v0 + (x1+x2−er)²/v1.
	// Stationarity gives x1 = e1 + λ·v0/2... solving directly:
	// let s = e1+e2, δ = er − s; then x1 = e1 + δ·w, x2 = e2 + δ·w with
	// w = v0/(2v0+v1), and root = x1+x2.
	tr := dyadic.NewTree(2)
	e1, e2, er := 3.0, 5.0, 12.0
	v0, v1 := 2.0, 3.0
	est := make([]float64, 3)
	est[tr.FlatIndex(dyadic.Interval{Order: 0, Index: 1})] = e1
	est[tr.FlatIndex(dyadic.Interval{Order: 0, Index: 2})] = e2
	est[tr.FlatIndex(dyadic.Interval{Order: 1, Index: 1})] = er
	out := Smooth(tr, est, []float64{v0, v1})
	w := v0 / (2*v0 + v1)
	delta := er - (e1 + e2)
	x1 := e1 + delta*w
	x2 := e2 + delta*w
	got1 := out[tr.FlatIndex(dyadic.Interval{Order: 0, Index: 1})]
	got2 := out[tr.FlatIndex(dyadic.Interval{Order: 0, Index: 2})]
	gotr := out[tr.FlatIndex(dyadic.Interval{Order: 1, Index: 1})]
	if math.Abs(got1-x1) > 1e-9 || math.Abs(got2-x2) > 1e-9 {
		t.Errorf("leaves (%v,%v), want (%v,%v)", got1, got2, x1, x2)
	}
	if math.Abs(gotr-(x1+x2)) > 1e-9 {
		t.Errorf("root %v, want %v", gotr, x1+x2)
	}
}

func TestSmoothInfiniteVarianceIgnoresLevel(t *testing.T) {
	// With the root measurement carrying no information, leaves must be
	// returned unchanged and the root replaced by their sum.
	tr := dyadic.NewTree(2)
	est := []float64{0, 0, 0}
	est[tr.FlatIndex(dyadic.Interval{Order: 0, Index: 1})] = 4
	est[tr.FlatIndex(dyadic.Interval{Order: 0, Index: 2})] = 6
	est[tr.FlatIndex(dyadic.Interval{Order: 1, Index: 1})] = 999
	out := Smooth(tr, est, []float64{1, math.Inf(1)})
	if out[tr.FlatIndex(dyadic.Interval{Order: 0, Index: 1})] != 4 ||
		out[tr.FlatIndex(dyadic.Interval{Order: 0, Index: 2})] != 6 {
		t.Errorf("leaves changed: %v", out)
	}
	if got := out[tr.FlatIndex(dyadic.Interval{Order: 1, Index: 1})]; got != 10 {
		t.Errorf("root = %v, want 10", got)
	}
}

func TestSmoothInfiniteLeafVarianceUsesParent(t *testing.T) {
	// With leaves carrying no information, each leaf gets half the parent.
	tr := dyadic.NewTree(2)
	est := []float64{100, 200, 10}
	idxR := tr.FlatIndex(dyadic.Interval{Order: 1, Index: 1})
	est[idxR] = 10
	out := Smooth(tr, est, []float64{math.Inf(1), 1})
	l := out[tr.FlatIndex(dyadic.Interval{Order: 0, Index: 1})]
	r := out[tr.FlatIndex(dyadic.Interval{Order: 0, Index: 2})]
	if math.Abs(l-5) > 1e-9 || math.Abs(r-5) > 1e-9 {
		t.Errorf("leaves (%v,%v), want (5,5)", l, r)
	}
}

func TestSmoothReducesMSE(t *testing.T) {
	// Statistical ablation (E10 in miniature): noisy measurements of a
	// known consistent ground truth; post-processing must reduce total
	// squared error on average.
	g := rng.New(5, 6)
	d := 32
	tr := dyadic.NewTree(d)
	// Ground truth: random leaf values, consistent parents.
	truth := make([]float64, tr.Size())
	for j := 1; j <= d; j++ {
		truth[tr.FlatIndex(dyadic.Interval{Order: 0, Index: j})] = float64(g.IntN(100))
	}
	for h := 1; h <= dyadic.Log2(d); h++ {
		for j := 1; j <= dyadic.CountAtOrder(d, h); j++ {
			l := truth[tr.FlatIndex(dyadic.Interval{Order: h - 1, Index: 2*j - 1})]
			r := truth[tr.FlatIndex(dyadic.Interval{Order: h - 1, Index: 2 * j})]
			truth[tr.FlatIndex(dyadic.Interval{Order: h, Index: j})] = l + r
		}
	}
	vars := make([]float64, dyadic.NumOrders(d))
	for h := range vars {
		vars[h] = 25
	}
	var rawSE, smoothSE float64
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		est := make([]float64, tr.Size())
		for i := range est {
			est[i] = truth[i] + 5*g.Normal()
		}
		out := Smooth(tr, est, vars)
		for i := range est {
			rawSE += (est[i] - truth[i]) * (est[i] - truth[i])
			smoothSE += (out[i] - truth[i]) * (out[i] - truth[i])
		}
	}
	if smoothSE >= rawSE {
		t.Errorf("post-processing increased SE: raw %v, smooth %v", rawSE, smoothSE)
	}
	// For a full uniform-variance tree the reduction is substantial.
	if smoothSE > 0.8*rawSE {
		t.Errorf("reduction too small: raw %v, smooth %v", rawSE, smoothSE)
	}
}

func TestSeriesFromTreeMatchesDecomposition(t *testing.T) {
	g := rng.New(7, 8)
	d := 64
	tr := dyadic.NewTree(d)
	vals := make([]float64, tr.Size())
	for i := range vals {
		vals[i] = g.Normal()
	}
	series := SeriesFromTree(tr, vals)
	for tt := 1; tt <= d; tt++ {
		want := 0.0
		for _, iv := range dyadic.Decompose(tt, d) {
			want += vals[tr.FlatIndex(iv)]
		}
		if math.Abs(series[tt-1]-want) > 1e-9 {
			t.Fatalf("series[%d] = %v, want %v", tt, series[tt-1], want)
		}
	}
}

func TestIsConsistentDetectsViolation(t *testing.T) {
	tr := dyadic.NewTree(4)
	vals := make([]float64, tr.Size())
	// all zeros is consistent
	if !IsConsistent(tr, vals, 1e-12) {
		t.Error("zero tree reported inconsistent")
	}
	vals[tr.FlatIndex(dyadic.Interval{Order: 2, Index: 1})] = 1
	if IsConsistent(tr, vals, 1e-12) {
		t.Error("violation not detected")
	}
}

func TestSmoothPanics(t *testing.T) {
	tr := dyadic.NewTree(4)
	for name, f := range map[string]func(){
		"bad est len": func() { Smooth(tr, make([]float64, 3), []float64{1, 1, 1}) },
		"bad var len": func() { Smooth(tr, make([]float64, tr.Size()), []float64{1, 1}) },
		"neg var":     func() { Smooth(tr, make([]float64, tr.Size()), []float64{1, -1, 1}) },
		"nan var":     func() { Smooth(tr, make([]float64, tr.Size()), []float64{1, math.NaN(), 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// IsConsistent reports whether every parent value equals the sum of its
// children's, within tolerance.
func IsConsistent(tr *dyadic.Tree, vals []float64, tol float64) bool {
	d := tr.D()
	for h := 1; h <= dyadic.Log2(d); h++ {
		for j := 1; j <= dyadic.CountAtOrder(d, h); j++ {
			p := vals[tr.FlatIndex(dyadic.Interval{Order: h, Index: j})]
			l := vals[tr.FlatIndex(dyadic.Interval{Order: h - 1, Index: 2*j - 1})]
			r := vals[tr.FlatIndex(dyadic.Interval{Order: h - 1, Index: 2 * j})]
			if math.Abs(p-(l+r)) > tol {
				return false
			}
		}
	}
	return true
}
