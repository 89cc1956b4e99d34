package core

import (
	"math"
	"testing"

	"rtf/internal/bitvec"
	"rtf/internal/probmath"
	"rtf/internal/rng"
)

// empiricalStringDist samples R̃(b) n times and returns the frequency of
// every output string, indexed by bitvec Index. Requires k <= 20.
func empiricalStringDist(t *testing.T, c *Composed, b bitvec.Vec, n int, g *rng.RNG) []float64 {
	t.Helper()
	k := b.Len()
	counts := make([]float64, 1<<uint(k))
	for i := 0; i < n; i++ {
		counts[c.Sample(g, b).Index()]++
	}
	for i := range counts {
		counts[i] /= float64(n)
	}
	return counts
}

func TestComposedSampleMatchesExactDistribution(t *testing.T) {
	// Lemma 5.2's exact distribution: Pr[R̃(b)=s] depends only on the
	// Hamming distance — g(dist) inside the annulus, P*out outside.
	// Compare string-level empirical frequencies against the analytic law.
	g := rng.New(101, 202)
	params, err := probmath.NewFutureRand(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComposed(params.Annulus)
	b := bitvec.FromSigns([]int8{1, -1, -1, 1})
	const n = 400000
	freq := empiricalStringDist(t, c, b, n, g)
	for idx, got := range freq {
		s := bitvec.FromIndex(4, idx)
		want := params.OutputProb(s.Hamming(b))
		tol := 6*math.Sqrt(want*(1-want)/n) + 1e-9
		if math.Abs(got-want) > tol {
			t.Errorf("Pr[R̃(b)=%v] = %v, want %v ± %v", s, got, want, tol)
		}
	}
}

func TestComposedDistanceDistribution(t *testing.T) {
	// Coarser but larger-k check: the Hamming distance of the output
	// follows DistanceProb.
	g := rng.New(103, 204)
	params, err := probmath.NewFutureRand(32, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComposed(params.Annulus)
	b := bitvec.Uniform(g, 32)
	const n = 200000
	counts := make([]float64, 33)
	for i := 0; i < n; i++ {
		counts[c.Sample(g, b).Hamming(b)]++
	}
	for i := 0; i <= 32; i++ {
		got := counts[i] / n
		want := params.DistanceProb(i)
		tol := 6*math.Sqrt(want*(1-want)/n) + 1e-9
		if math.Abs(got-want) > tol {
			t.Errorf("Pr[dist=%d] = %v, want %v ± %v", i, got, want, tol)
		}
	}
}

func TestSampleComplementUniform(t *testing.T) {
	// Every string outside the annulus must be equally likely; strings
	// inside must never appear.
	g := rng.New(105, 206)
	params, err := probmath.NewFutureRand(6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComposed(params.Annulus)
	b := bitvec.FromSigns([]int8{1, 1, -1, 1, -1, 1})
	const n = 300000
	counts := make([]int, 64)
	outside := 0
	for i := 0; i <= 6; i++ {
		if !params.Inside(i) {
			outside += choose(6, i)
		}
	}
	for i := 0; i < n; i++ {
		s := c.SampleComplement(g, b)
		if params.Inside(s.Hamming(b)) {
			t.Fatalf("complement sample %v landed inside annulus", s)
		}
		counts[s.Index()]++
	}
	want := float64(n) / float64(outside)
	for idx, cnt := range counts {
		if cnt == 0 {
			continue
		}
		if math.Abs(float64(cnt)-want) > 6*math.Sqrt(want) {
			t.Errorf("complement string %v count %d, want ~%v", bitvec.FromIndex(6, idx), cnt, want)
		}
	}
}

func choose(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestSampleComplementMatchesRejection(t *testing.T) {
	// The inverse-CDF sampler and the rejection sampler must produce the
	// same distribution over Hamming distances.
	g := rng.New(107, 208)
	params, err := probmath.NewFutureRand(12, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComposed(params.Annulus)
	b := bitvec.Uniform(g, 12)
	const n = 150000
	h1 := make([]float64, 13)
	h2 := make([]float64, 13)
	for i := 0; i < n; i++ {
		h1[c.SampleComplement(g, b).Hamming(b)]++
		h2[c.SampleComplementRejection(g, b).Hamming(b)]++
	}
	tv := 0.0
	for i := range h1 {
		tv += math.Abs(h1[i]-h2[i]) / n
	}
	tv /= 2
	if tv > 0.01 {
		t.Errorf("TV distance between complement samplers = %v", tv)
	}
}

func TestSampleComplementRejectionInfeasiblePanics(t *testing.T) {
	// Bun et al.'s annulus covers ~99.99% of the cube; rejection must
	// refuse rather than spin.
	params, err := probmath.NewBun(256, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if params.UnifInMass <= 0.999 {
		t.Skipf("unexpectedly small annulus mass %v", params.UnifInMass)
	}
	c := NewComposed(params.Annulus)
	defer func() {
		if recover() == nil {
			t.Error("rejection sampler did not panic on near-full annulus")
		}
	}()
	c.SampleComplementRejection(rng.New(1, 1), bitvec.Ones(256))
}

func TestComposedBunSampleDistances(t *testing.T) {
	// The Bun sampler must work end-to-end despite the tiny complement.
	g := rng.New(109, 210)
	params, err := probmath.NewBun(64, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComposed(params.Annulus)
	b := bitvec.Uniform(g, 64)
	const n = 20000
	mean := 0.0
	for i := 0; i < n; i++ {
		mean += float64(c.Sample(g, b).Hamming(b))
	}
	mean /= n
	// Expected distance ≈ Σ i·DistanceProb(i).
	want := 0.0
	for i := 0; i <= 64; i++ {
		want += float64(i) * params.DistanceProb(i)
	}
	if math.Abs(mean-want) > 0.5 {
		t.Errorf("Bun mean output distance %v, want %v", mean, want)
	}
}

func TestComposedPanics(t *testing.T) {
	params, err := probmath.NewFutureRand(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComposed(params.Annulus)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Sample with wrong length did not panic")
			}
		}()
		c.Sample(rng.New(1, 1), bitvec.Ones(5))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewComposed(nil) did not panic")
			}
		}()
		NewComposed(nil)
	}()
}

// SampleComplement draws a uniform element of {−1,1}^k \ Ann(b), by
// inverse-CDF sampling of the Hamming distance (weights C(k,i) outside
// [LB..UB]) followed by a uniform choice of which coordinates differ.
// This is exact and fast even when the annulus covers almost the whole
// cube, as it does for the Bun et al. parameters. The input is not
// modified.
func (c *Composed) SampleComplement(g *rng.RNG, b bitvec.Vec) bitvec.Vec {
	return c.complementOf(g, bitvec.Ones(c.ann.K)).Times(b)
}

// SampleComplementRejection draws a uniform element of the complement by
// rejection against uniform strings. It is exact but its running time is
// geometric with success probability 1 − UnifInMass; tests use it to
// cross-validate SampleComplement. It panics if the annulus covers more
// than 99.9% of the cube, where rejection is hopeless.
func (c *Composed) SampleComplementRejection(g *rng.RNG, b bitvec.Vec) bitvec.Vec {
	if c.ann.UnifInMass > 0.999 {
		panic("core: rejection sampling infeasible for this annulus")
	}
	for {
		s := bitvec.Uniform(g, c.ann.K)
		if !c.ann.Inside(s.Hamming(b)) {
			return s
		}
	}
}
