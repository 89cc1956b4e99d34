package probmath

import (
	"math"
	"testing"
	"testing/quick"

	"rtf/internal/binom"
)

func mustFR(t *testing.T, k int, eps float64) *Params {
	t.Helper()
	p, err := NewFutureRand(k, eps)
	if err != nil {
		t.Fatalf("NewFutureRand(%d,%v): %v", k, eps, err)
	}
	return p
}

func mustBun(t *testing.T, k int, eps float64) *Params {
	t.Helper()
	p, err := NewBun(k, eps)
	if err != nil {
		t.Fatalf("NewBun(%d,%v): %v", k, eps, err)
	}
	return p
}

func TestDistanceDistributionSumsToOne(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8, 16, 64, 256} {
		for _, eps := range []float64{0.1, 0.5, 1.0} {
			p := mustFR(t, k, eps)
			sum := 0.0
			for i := 0; i <= k; i++ {
				d := p.DistanceProb(i)
				if d < 0 {
					t.Fatalf("k=%d: DistanceProb(%d) = %v < 0", k, i, d)
				}
				sum += d
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("k=%d eps=%v: distance distribution sums to %v", k, eps, sum)
			}
		}
	}
}

func TestStringDistributionSumsToOne(t *testing.T) {
	// Enumerate all 2^k output strings via their distance classes.
	for _, k := range []int{1, 2, 4, 8, 12} {
		p := mustFR(t, k, 1.0)
		sum := 0.0
		for i := 0; i <= k; i++ {
			cf, _ := binom.ChooseFloat(k, i, 64).Float64()
			sum += cf * p.OutputProb(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("k=%d: string distribution sums to %v", k, sum)
		}
	}
}

func TestCGapCrossCheckLogSpace(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 16, 33, 128, 512} {
		for _, eps := range []float64{0.2, 1.0} {
			p := mustFR(t, k, eps)
			ls := p.CGapLogSpace()
			if rel := math.Abs(ls-p.CGap) / p.CGap; rel > 1e-9 {
				t.Errorf("k=%d eps=%v: CGap=%v logspace=%v rel=%v", k, eps, p.CGap, ls, rel)
			}
		}
	}
}

// TestCGapBruteForce recomputes the first-coordinate preservation gap by
// direct summation over distance classes, splitting each class by whether
// the first coordinate is preserved, exactly as in the proof of Lemma 5.3.
func TestCGapBruteForce(t *testing.T) {
	for _, k := range []int{1, 2, 3, 6, 10, 14} {
		p := mustFR(t, k, 0.8)
		keep, flip := 0.0, 0.0
		for i := 0; i <= k; i++ {
			// Of the C(k,i) strings at distance i, fraction (k-i)/k keep
			// coordinate 1 and fraction i/k flip it.
			cf, _ := binom.ChooseFloat(k, i, 64).Float64()
			q := p.OutputProb(i)
			keep += cf * q * float64(k-i) / float64(k)
			flip += cf * q * float64(i) / float64(k)
		}
		if math.Abs(keep+flip-1) > 1e-9 {
			t.Fatalf("k=%d: keep+flip = %v", k, keep+flip)
		}
		if got := keep - flip; math.Abs(got-p.CGap) > 1e-9 {
			t.Errorf("k=%d: brute-force cgap %v, computed %v", k, got, p.CGap)
		}
	}
}

func TestCGapSqrtKScaling(t *testing.T) {
	// Theorem 4.4: c_gap ∈ Ω(ε/√k). Empirically the normalized constant
	// c_gap·√k/ε stays in a narrow band across three decades of k.
	for _, eps := range []float64{0.25, 1.0} {
		for _, k := range []int{1, 2, 4, 16, 64, 256, 1024} {
			p := mustFR(t, k, eps)
			norm := p.CGap * math.Sqrt(float64(k)) / eps
			if norm < 0.06 || norm > 0.11 {
				t.Errorf("k=%d eps=%v: c_gap·√k/ε = %v outside [0.06, 0.11]", k, eps, norm)
			}
		}
	}
}

func TestPrivacyRatioWithinEps(t *testing.T) {
	// Lemma 5.2: p'max/p'min <= e^ε. The implementation realizes roughly
	// e^{0.48ε}; assert the lemma's bound with no slack.
	for _, eps := range []float64{0.1, 0.5, 1.0} {
		for _, k := range []int{1, 2, 3, 4, 8, 16, 64, 256, 1024} {
			p := mustFR(t, k, eps)
			if p.EpsActual > eps+1e-12 {
				t.Errorf("k=%d eps=%v: realized ratio %v exceeds budget", k, eps, p.EpsActual)
			}
			if p.EpsActual <= 0 {
				t.Errorf("k=%d eps=%v: non-positive realized ratio %v", k, eps, p.EpsActual)
			}
		}
	}
}

func TestFutureRandGeometry(t *testing.T) {
	// Paper identities (Eq 15, 21, 36): UB ∈ [kp, k/2] once k is large
	// enough that LB > 0, and g(UB_real) = 2^{-k} exactly.
	for _, k := range []int{16, 64, 256, 1024} {
		p := mustFR(t, k, 1.0)
		kp := float64(k) * p.P
		if p.UBReal < kp-1e-9 || p.UBReal > float64(k)/2+1e-9 {
			t.Errorf("k=%d: UB_real %v outside [kp=%v, k/2=%v]", k, p.UBReal, kp, float64(k)/2)
		}
		if p.LBReal > kp {
			t.Errorf("k=%d: LB_real %v > kp %v", k, p.LBReal, kp)
		}
		// ln g(UB_real) must equal -k·ln2.
		lg := p.UBReal*math.Log(p.P) + (float64(k)-p.UBReal)*math.Log1p(-p.P)
		if math.Abs(lg+float64(k)*math.Ln2) > 1e-6*float64(k) {
			t.Errorf("k=%d: ln g(UB) = %v, want %v", k, lg, -float64(k)*math.Ln2)
		}
		// g(kp) >= 2^-k >= g(k/2) (Eq 36), checked in log space at the
		// nearest integers inside the range.
		if p.LogG(int(math.Ceil(kp))) < -float64(k)*math.Ln2-1e-6 && false {
			t.Errorf("k=%d: g(kp) < 2^-k", k)
		}
		if lgHalf := p.LogG(k / 2); lgHalf > -float64(k)*math.Ln2+1e-6 {
			t.Errorf("k=%d: g(k/2) > 2^-k", k)
		}
	}
}

func TestGMonotoneDecreasing(t *testing.T) {
	p := mustFR(t, 32, 1.0)
	for i := 1; i <= 32; i++ {
		if p.G(i) >= p.G(i-1) {
			t.Fatalf("g not strictly decreasing at i=%d", i)
		}
		if math.Abs(p.LogG(i)-math.Log(p.G(i))) > 1e-9 {
			t.Fatalf("LogG(%d) inconsistent with G", i)
		}
	}
}

func TestPOutBelowUniform(t *testing.T) {
	// Inequality 20: P*out <= 2^{-k}, and every annulus string has
	// probability >= 2^{-k} (Eq 22).
	for _, k := range []int{4, 16, 64, 256} {
		p := mustFR(t, k, 1.0)
		lu := -float64(k) * math.Ln2
		if p.LogPOut > lu+1e-9 {
			t.Errorf("k=%d: ln P*out = %v > -k ln2 = %v", k, p.LogPOut, lu)
		}
		if p.LogG(p.UB) < lu-1e-9 {
			t.Errorf("k=%d: ln g(UB) = %v < -k ln2", k, p.LogG(p.UB))
		}
	}
}

func TestMarginalPrefix(t *testing.T) {
	for _, k := range []int{3, 6, 10} {
		p := mustFR(t, k, 0.7)
		// sigma = k: the marginal is the exact single-string probability.
		for m1 := 0; m1 <= k; m1++ {
			if got, want := p.MarginalPrefix(k, m1), p.OutputProb(m1); math.Abs(got-want) > 1e-12 {
				t.Errorf("k=%d MarginalPrefix(k,%d) = %v, want %v", k, m1, got, want)
			}
		}
		// sigma = 0: the empty pattern has probability 1.
		if got := p.MarginalPrefix(0, 0); math.Abs(got-1) > 1e-9 {
			t.Errorf("k=%d MarginalPrefix(0,0) = %v", k, got)
		}
		// For every sigma, the pattern probabilities must sum to 1:
		// Σ_{m1} C(sigma,m1)·MarginalPrefix(sigma,m1) = 1.
		for sigma := 1; sigma <= k; sigma++ {
			sum := 0.0
			for m1 := 0; m1 <= sigma; m1++ {
				cf, _ := binom.ChooseFloat(sigma, m1, 64).Float64()
				sum += cf * p.MarginalPrefix(sigma, m1)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("k=%d sigma=%d: prefix marginals sum to %v", k, sigma, sum)
			}
		}
	}
}

func TestComplementDistCDF(t *testing.T) {
	p := mustFR(t, 16, 1.0)
	cdf := p.ComplementDistCDF()
	if len(cdf) != 17 {
		t.Fatalf("CDF length %d", len(cdf))
	}
	prev := 0.0
	for i, c := range cdf {
		if c < prev-1e-12 {
			t.Fatalf("CDF decreasing at %d", i)
		}
		if p.Inside(i) && i > 0 && math.Abs(c-prev) > 1e-12 {
			t.Fatalf("CDF gained mass inside annulus at %d", i)
		}
		prev = c
	}
	if math.Abs(cdf[16]-1) > 1e-12 {
		t.Fatalf("CDF final value %v", cdf[16])
	}
	// Cross-check one interior value against direct binomial weights.
	var inC, total float64
	for i := 0; i <= 16; i++ {
		cf, _ := binom.ChooseFloat(16, i, 64).Float64()
		if !p.Inside(i) {
			total += cf
			if i <= 3 {
				inC += cf
			}
		}
	}
	if math.Abs(cdf[3]-inC/total) > 1e-9 {
		t.Errorf("CDF[3] = %v, want %v", cdf[3], inC/total)
	}
	// Cached: second call returns the same slice.
	if &cdf[0] != &p.ComplementDistCDF()[0] {
		t.Error("ComplementDistCDF not cached")
	}
}

func TestComplementEmptyDegeneracy(t *testing.T) {
	// A full-cover annulus makes R̃ degenerate to independent flips:
	// c_gap = 1 − 2p, P*out = 0.
	a, err := NewAnnulus(8, 0.3, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !a.ComplementEmpty() {
		t.Fatal("expected empty complement")
	}
	if math.Abs(a.CGap-(1-2*0.3)) > 1e-12 {
		t.Errorf("degenerate c_gap = %v, want %v", a.CGap, 1-2*0.3)
	}
	if a.POutF != 0 || !math.IsInf(a.LogPOut, -1) {
		t.Errorf("degenerate P*out = %v (log %v)", a.POutF, a.LogPOut)
	}
	ls := a.CGapLogSpace()
	if math.Abs(ls-a.CGap) > 1e-12 {
		t.Errorf("logspace degenerate c_gap = %v", ls)
	}
	defer func() {
		if recover() == nil {
			t.Error("ComplementDistCDF on full annulus did not panic")
		}
	}()
	a.ComplementDistCDF()
}

func TestNewAnnulusClamping(t *testing.T) {
	a, err := NewAnnulus(10, 0.4, -5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.LB != 0 || a.UB != 10 {
		t.Errorf("clamped bounds [%d..%d], want [0..10]", a.LB, a.UB)
	}
	if _, err := NewAnnulus(10, 0.4, 7, 3); err == nil {
		t.Error("inverted annulus accepted")
	}
	if _, err := NewAnnulus(0, 0.4, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewAnnulus(5, 0, 0, 3); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := NewAnnulus(5, 1, 0, 3); err == nil {
		t.Error("p=1 accepted")
	}
}

func TestParamValidation(t *testing.T) {
	cases := []struct {
		k   int
		eps float64
	}{
		{0, 0.5}, {-3, 0.5}, {4, 0}, {4, -1}, {4, 1.5},
		{4, math.NaN()}, {4, math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := NewFutureRand(c.k, c.eps); err == nil {
			t.Errorf("NewFutureRand(%d,%v) accepted", c.k, c.eps)
		}
		if _, err := NewBun(c.k, c.eps); err == nil {
			t.Errorf("NewBun(%d,%v) accepted", c.k, c.eps)
		}
	}
}

func TestBunConstraints(t *testing.T) {
	// Fact A.6 preconditions must hold for the solved λ.
	for _, k := range []int{4, 16, 64, 256, 1024} {
		for _, eps := range []float64{0.25, 1.0} {
			p := mustBun(t, k, eps)
			if p.Lambda <= 0 || p.Lambda >= 1 {
				t.Fatalf("k=%d: lambda %v out of (0,1)", k, p.Lambda)
			}
			bound := math.Pow(p.EpsTilde*math.Sqrt(float64(k))/(2*float64(k+1)), 2.0/3.0)
			if p.Lambda >= bound {
				t.Errorf("k=%d eps=%v: lambda %v violates Ineq 45 bound %v", k, eps, p.Lambda, bound)
			}
			// Eq 46: ε = 6ε̃·sqrt(k·ln(1/λ)).
			back := 6 * p.EpsTilde * math.Sqrt(float64(k)*math.Log(1/p.Lambda))
			if math.Abs(back-eps) > 1e-9 {
				t.Errorf("k=%d: Eq 46 reconstructs eps=%v, want %v", k, back, eps)
			}
			if p.EpsActual > eps+1e-12 {
				t.Errorf("k=%d: Bun realized ratio %v exceeds eps %v", k, p.EpsActual, eps)
			}
		}
	}
}

func TestBunWorseThanFutureRand(t *testing.T) {
	// Section 6 / Theorem A.8: the Bun et al. composition loses a
	// sqrt(ln(k/ε)) factor in c_gap once k is moderately large.
	for _, k := range []int{16, 64, 256, 1024} {
		fr := mustFR(t, k, 1.0)
		bun := mustBun(t, k, 1.0)
		if bun.CGap >= fr.CGap {
			t.Errorf("k=%d: Bun c_gap %v >= FutureRand c_gap %v", k, bun.CGap, fr.CGap)
		}
		// And the ratio should grow (slowly) with k.
		norm := bun.CGap * math.Sqrt(float64(k)*math.Log(float64(k))) / 1.0
		if norm < 0.03 || norm > 0.12 {
			t.Errorf("k=%d: Bun c_gap·sqrt(k ln k)/ε = %v outside [0.03,0.12]", k, norm)
		}
	}
}

func TestCGapHelpers(t *testing.T) {
	if got := CGapBasic(0); got != 0 {
		t.Errorf("CGapBasic(0) = %v", got)
	}
	want := (math.E - 1) / (math.E + 1)
	if got := CGapBasic(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("CGapBasic(1) = %v, want %v", got, want)
	}
	if got := CGapIndependent(4, 1.0); math.Abs(got-CGapBasic(0.25)) > 1e-15 {
		t.Errorf("CGapIndependent(4,1) = %v", got)
	}
}

func TestHoeffdingErrorBound(t *testing.T) {
	b1 := HoeffdingErrorBound(1000, 64, 0.1, 0.05)
	b2 := HoeffdingErrorBound(4000, 64, 0.1, 0.05)
	if b1 <= 0 {
		t.Fatalf("bound %v not positive", b1)
	}
	if math.Abs(b2/b1-2) > 1e-9 {
		t.Errorf("bound not scaling as sqrt(n): %v -> %v", b1, b2)
	}
	// Explicit value: (1+log2 d)/c · sqrt(2n ln(2/β)).
	want := 7.0 / 0.1 * math.Sqrt(2*1000*math.Log(2/0.05))
	if math.Abs(b1-want) > 1e-9 {
		t.Errorf("bound = %v, want %v", b1, want)
	}
}

func TestTheoremAssumption(t *testing.T) {
	if !TheoremAssumption(1_000_000, 1024, 4, 1.0, 0.05) {
		t.Error("large-n regime should satisfy the assumption")
	}
	if TheoremAssumption(100, 1024, 64, 0.1, 0.05) {
		t.Error("tiny-n regime should not satisfy the assumption")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	p := mustFR(t, 8, 1.0)
	for name, f := range map[string]func(){
		"OutputProb(-1)":   func() { p.OutputProb(-1) },
		"OutputProb(9)":    func() { p.OutputProb(9) },
		"LogG(-1)":         func() { p.LogG(-1) },
		"LogOutputProb(9)": func() { p.LogOutputProb(9) },
		"MarginalPrefix":   func() { p.MarginalPrefix(9, 0) },
		"MarginalPrefixM":  func() { p.MarginalPrefix(3, 4) },
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

func TestQuickInvariants(t *testing.T) {
	f := func(kRaw uint8, epsRaw uint16) bool {
		k := int(kRaw%64) + 1
		eps := (float64(epsRaw%1000) + 1) / 1000 // (0, 1]
		p, err := NewFutureRand(k, eps)
		if err != nil {
			return false
		}
		return p.CGap > 0 &&
			p.EpsActual > 0 && p.EpsActual <= eps+1e-12 &&
			p.LogPMin <= p.LogPMax &&
			p.LB >= 0 && p.UB <= k && p.LB <= p.UB &&
			p.InMass > 0 && p.InMass <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TheoremAssumption reports whether the parameter regime satisfies the
// non-triviality assumption of Theorem 4.1:
// ε⁻¹·(log d)·sqrt(k·ln(d/β)) ≤ √n.
func TheoremAssumption(n, d, k int, eps, beta float64) bool {
	logd := math.Log2(float64(d))
	lhs := (1 / eps) * logd * math.Sqrt(float64(k)*math.Log(float64(d)/beta))
	return lhs <= math.Sqrt(float64(n))
}
