// Package stats provides the statistical utilities used by the
// experiment harness: error metrics between estimate series and ground
// truth, summary statistics, empirical-distribution distances, and
// log-log regression for measuring scaling exponents (the quantity the
// paper's theorems predict: slope ½ in k and n, −1 in ε).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MaxAbsError returns ℓ∞ error: max_t |est[t] − truth[t]| — the quantity
// bounded by Theorem 4.1.
func MaxAbsError(est []float64, truth []int) float64 {
	mustSameLen(len(est), len(truth))
	m := 0.0
	for i := range est {
		if d := math.Abs(est[i] - float64(truth[i])); d > m {
			m = d
		}
	}
	return m
}

// MAE returns the mean absolute error.
func MAE(est []float64, truth []int) float64 {
	mustSameLen(len(est), len(truth))
	if len(est) == 0 {
		return 0
	}
	s := 0.0
	for i := range est {
		s += math.Abs(est[i] - float64(truth[i]))
	}
	return s / float64(len(est))
}

// RMSE returns the root-mean-square error.
func RMSE(est []float64, truth []int) float64 {
	mustSameLen(len(est), len(truth))
	if len(est) == 0 {
		return 0
	}
	s := 0.0
	for i := range est {
		d := est[i] - float64(truth[i])
		s += d * d
	}
	return math.Sqrt(s / float64(len(est)))
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", a, b))
	}
}

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	Median, P90, P99 float64
}

// Summarize computes a Summary. An empty input yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum, sumSq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sumSq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	v := sumSq/n - s.Mean*s.Mean
	if v < 0 {
		v = 0
	}
	s.Std = math.Sqrt(v)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile (linear interpolation) of an already
// sorted sample. It panics on an empty sample or q outside [0,1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdErr returns the standard error of the mean: std/√n.
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return Summarize(xs).Std / math.Sqrt(float64(len(xs)-1))
}

// TVDistance returns the total-variation distance ½·Σ|p_i − q_i| between
// two distributions given as aligned probability vectors.
func TVDistance(p, q []float64) float64 {
	mustSameLen(len(p), len(q))
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2
}

// Normalize converts counts to frequencies; a zero-total input yields a
// zero vector.
func Normalize(counts []float64) []float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = c / total
	}
	return out
}

// FitResult is a least-squares line fit y = Intercept + Slope·x.
type FitResult struct {
	Slope, Intercept, R2 float64
}

// LinearFit fits a least-squares line. It panics if fewer than two points
// or zero x-variance.
func LinearFit(xs, ys []float64) FitResult {
	mustSameLen(len(xs), len(ys))
	if len(xs) < 2 {
		panic("stats: need at least two points to fit")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: zero variance in x")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R² = 1 − SS_res/SS_tot.
	ssTot := syy - sy*sy/n
	ssRes := 0.0
	for i := range xs {
		r := ys[i] - (intercept + slope*xs[i])
		ssRes += r * r
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return FitResult{Slope: slope, Intercept: intercept, R2: r2}
}

// LogLogFit fits ln y = a + b·ln x and returns the fit; the slope b is
// the empirical scaling exponent. Non-positive values panic.
func LogLogFit(xs, ys []float64) FitResult {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: log-log fit requires positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return LinearFit(lx, ly)
}
