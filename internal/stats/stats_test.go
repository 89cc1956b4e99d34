package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestErrorMetrics(t *testing.T) {
	est := []float64{1, 2, 3, 10}
	truth := []int{1, 4, 1, 6}
	if got := MaxAbsError(est, truth); got != 4 {
		t.Errorf("MaxAbsError = %v, want 4", got)
	}
	if got := MAE(est, truth); got != 2 {
		t.Errorf("MAE = %v, want 2", got)
	}
	want := math.Sqrt((0.0 + 4 + 4 + 16) / 4)
	if got := RMSE(est, truth); math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
	if got := MeanError(est, truth); math.Abs(got-1) > 1e-12 {
		t.Errorf("MeanError = %v, want 1", got)
	}
}

func TestErrorMetricsEmptyAndMismatch(t *testing.T) {
	if MAE(nil, nil) != 0 || RMSE(nil, nil) != 0 || MeanError(nil, nil) != 0 {
		t.Error("empty metrics not zero")
	}
	if MaxAbsError(nil, nil) != 0 {
		t.Error("empty MaxAbsError not zero")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	MAE([]float64{1}, []int{1, 2})
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("Summary basics wrong: %+v", s)
	}
	if math.Abs(s.Mean-2.5) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
	wantStd := math.Sqrt(1.25)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, wantStd)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Errorf("Median = %v", s.Median)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty Summary = %+v", z)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 0}, {1, 40}, {0.5, 20}, {0.25, 10}, {0.1, 4},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile(sorted, -0.1) },
		func() { Quantile(sorted, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Quantile call did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMeanAndStdErr(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if StdErr([]float64{5}) != 0 {
		t.Error("StdErr of single point != 0")
	}
	// StdErr = std/sqrt(n-1) with population std.
	xs := []float64{1, 3}
	if got := StdErr(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("StdErr = %v, want 1", got)
	}
}

func TestTVDistance(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	q := []float64{0.25, 0.25, 0.5}
	if got := TVDistance(p, q); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TV = %v, want 0.5", got)
	}
	if got := TVDistance(p, p); got != 0 {
		t.Errorf("TV(p,p) = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{1, 3})
	if math.Abs(got[0]-0.25) > 1e-12 || math.Abs(got[1]-0.75) > 1e-12 {
		t.Errorf("Normalize = %v", got)
	}
	z := Normalize([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("Normalize zeros = %v", z)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 3 + 2x
	f := LinearFit(xs, ys)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-3) > 1e-12 {
		t.Errorf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", f.R2)
	}
}

func TestLinearFitNoise(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0.1, 0.9, 2.1, 2.9}
	f := LinearFit(xs, ys)
	if math.Abs(f.Slope-1) > 0.1 || f.R2 < 0.98 {
		t.Errorf("noisy fit = %+v", f)
	}
}

func TestLogLogFitRecoverExponent(t *testing.T) {
	// y = 7·x^0.5: slope must come back 0.5.
	var xs, ys []float64
	for _, x := range []float64{1, 4, 16, 64, 256} {
		xs = append(xs, x)
		ys = append(ys, 7*math.Sqrt(x))
	}
	f := LogLogFit(xs, ys)
	if math.Abs(f.Slope-0.5) > 1e-9 {
		t.Errorf("exponent = %v, want 0.5", f.Slope)
	}
	if math.Abs(math.Exp(f.Intercept)-7) > 1e-9 {
		t.Errorf("prefactor = %v, want 7", math.Exp(f.Intercept))
	}
}

func TestFitPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"one point":    func() { LinearFit([]float64{1}, []float64{1}) },
		"zero var":     func() { LinearFit([]float64{2, 2}, []float64{1, 3}) },
		"neg loglog":   func() { LogLogFit([]float64{-1, 2}, []float64{1, 1}) },
		"zero loglog":  func() { LogLogFit([]float64{1, 2}, []float64{0, 1}) },
		"len mismatch": func() { LinearFit([]float64{1, 2}, []float64{1}) },
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

func TestSummarizeQuickBounds(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		// Constrain to a range where sums of squares cannot overflow.
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			raw[i] = math.Mod(x, 1e6)
		}
		s := Summarize(raw)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MeanError returns the signed mean error (bias estimate).
func MeanError(est []float64, truth []int) float64 {
	mustSameLen(len(est), len(truth))
	if len(est) == 0 {
		return 0
	}
	s := 0.0
	for i := range est {
		s += est[i] - float64(truth[i])
	}
	return s / float64(len(est))
}
