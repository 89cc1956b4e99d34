package central

import (
	"math"
	"testing"

	"rtf/internal/rng"
	"rtf/internal/stats"
	"rtf/internal/workload"
)

func genWorkload(t *testing.T, n int) *workload.Workload {
	t.Helper()
	w, err := workload.UniformGen{N: n, D: 32, K: 4}.Generate(rng.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSensitivity(t *testing.T) {
	m := BinaryMechanism{D: 16, K: 3, Eps: 1}
	if got := m.Sensitivity(); got != 15 {
		t.Errorf("Sensitivity = %v, want 15 (= 3·(1+4))", got)
	}
}

func TestRunValidation(t *testing.T) {
	w := genWorkload(t, 10)
	if _, err := (BinaryMechanism{D: 64, K: 4, Eps: 1}).Run(w, rng.New(1, 1)); err == nil {
		t.Error("d mismatch accepted")
	}
	if _, err := (BinaryMechanism{D: 32, K: 4, Eps: 0}).Run(w, rng.New(1, 1)); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := (BinaryMechanism{D: 32, K: 0, Eps: 1}).Run(w, rng.New(1, 1)); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestUnbiasedAndBounded(t *testing.T) {
	w := genWorkload(t, 500)
	truth := w.Truth()
	m := BinaryMechanism{D: w.D, K: w.K, Eps: 1}
	g := rng.New(3, 4)
	const trials = 400
	sums := make([]float64, w.D)
	var maxErr []float64
	for trial := 0; trial < trials; trial++ {
		est, err := m.Run(w, g.Split())
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range est {
			sums[i] += e
		}
		maxErr = append(maxErr, stats.MaxAbsError(est, truth))
	}
	// Unbiasedness at a few time points.
	seApprox := m.TheoreticalStd(3) / math.Sqrt(trials)
	for _, tt := range []int{1, 7, 16, 32} {
		got := sums[tt-1] / trials
		if math.Abs(got-float64(truth[tt-1])) > 8*seApprox {
			t.Errorf("E[â[%d]] = %v, truth %d (se %v)", tt, got, truth[tt-1], seApprox)
		}
	}
	// Error should be within a small multiple of the theoretical per-node
	// noise, and absurdly smaller than n would indicate scaling bugs.
	meanMax := stats.Mean(maxErr)
	if meanMax <= 0 {
		t.Fatal("zero error: noise missing")
	}
	if meanMax > 40*m.Sensitivity() {
		t.Errorf("mean max error %v too large for sensitivity %v", meanMax, m.Sensitivity())
	}
}

func TestErrorIndependentOfN(t *testing.T) {
	// The central model's error must not grow with n (the fundamental gap
	// vs the local model, experiment E9).
	g := rng.New(5, 6)
	errAt := func(n int) float64 {
		w := genWorkload(t, n)
		m := BinaryMechanism{D: w.D, K: w.K, Eps: 1}
		var es []float64
		for trial := 0; trial < 60; trial++ {
			est, err := m.Run(w, g.Split())
			if err != nil {
				t.Fatal(err)
			}
			es = append(es, stats.MaxAbsError(est, w.Truth()))
		}
		return stats.Mean(es)
	}
	small, large := errAt(100), errAt(10000)
	if large > 2*small {
		t.Errorf("central error grew with n: %v -> %v", small, large)
	}
}

func TestErrorScalesWithKOverEps(t *testing.T) {
	g := rng.New(7, 8)
	run := func(k int, eps float64) float64 {
		w, err := workload.UniformGen{N: 300, D: 32, K: k}.Generate(rng.New(9, 10))
		if err != nil {
			t.Fatal(err)
		}
		m := BinaryMechanism{D: 32, K: k, Eps: eps}
		var es []float64
		for trial := 0; trial < 80; trial++ {
			est, err := m.Run(w, g.Split())
			if err != nil {
				t.Fatal(err)
			}
			es = append(es, stats.MaxAbsError(est, w.Truth()))
		}
		return stats.Mean(es)
	}
	base := run(2, 1.0)
	doubleK := run(4, 1.0)
	halfEps := run(2, 0.5)
	if doubleK < 1.5*base || doubleK > 3*base {
		t.Errorf("doubling k: %v -> %v, want ≈ 2×", base, doubleK)
	}
	if halfEps < 1.5*base || halfEps > 3*base {
		t.Errorf("halving eps: %v -> %v, want ≈ 2×", base, halfEps)
	}
}

func TestTheoreticalStd(t *testing.T) {
	m := BinaryMechanism{D: 16, K: 2, Eps: 0.5}
	want := (10 / 0.5) * math.Sqrt2 * math.Sqrt(3)
	if got := m.TheoreticalStd(3); math.Abs(got-want) > 1e-9 {
		t.Errorf("TheoreticalStd = %v, want %v", got, want)
	}
}

// TheoreticalStd returns the standard deviation of the estimate at a time
// whose decomposition has c intervals: √c·√2·∆/ε (Laplace variance 2b²).
func (m BinaryMechanism) TheoreticalStd(c int) float64 {
	b := m.Sensitivity() / m.Eps
	return b * math.Sqrt2 * math.Sqrt(float64(c))
}
