package core

import (
	"math"
	"testing"

	"rtf/internal/bitvec"
	"rtf/internal/probmath"
	"rtf/internal/rng"
)

func newFR(t *testing.T, l, k int, eps float64) *ComposedFactory {
	t.Helper()
	f, err := NewFutureRandFactory(l, k, eps)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runInstance feeds the sequence v through a fresh instance.
func runInstance(f Factory, g *rng.RNG, v []int8) []int8 {
	m := f.NewInstance(g)
	out := make([]int8, len(v))
	for i, x := range v {
		out[i] = m.Perturb(x)
	}
	return out
}

func TestFutureRandOutputsAreSigns(t *testing.T) {
	g := rng.New(1, 2)
	f := newFR(t, 8, 3, 1.0)
	v := []int8{0, 1, 0, -1, 0, 1, 0, 0}
	for trial := 0; trial < 200; trial++ {
		for _, o := range runInstance(f, g, v) {
			if o != 1 && o != -1 {
				t.Fatalf("output %d not ±1", o)
			}
		}
	}
}

func TestFutureRandZerosUniformAndIndependent(t *testing.T) {
	// Property III: zero coordinates are fresh fair coins.
	g := rng.New(3, 4)
	f := newFR(t, 4, 2, 1.0)
	const n = 100000
	counts := make(map[[2]int8]int)
	for i := 0; i < n; i++ {
		out := runInstance(f, g, []int8{0, 1, 0, -1})
		counts[[2]int8{out[0], out[2]}]++
	}
	for _, pair := range [][2]int8{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
		got := float64(counts[pair]) / n
		if math.Abs(got-0.25) > 0.01 {
			t.Errorf("zero-coordinate pair %v frequency %v, want 0.25", pair, got)
		}
	}
}

func TestFutureRandPropertyIIGap(t *testing.T) {
	// Property II: Pr[output = v_j] − Pr[output = −v_j] equals the exact
	// c_gap for every non-zero coordinate, regardless of position.
	g := rng.New(5, 6)
	f := newFR(t, 6, 4, 1.0)
	want := f.CGap()
	const n = 500000
	// Input with full support in arbitrary positions and signs.
	v := []int8{1, -1, 0, 1, -1, 0}
	nonzero := []int{0, 1, 3, 4}
	keep := make([]float64, len(v))
	for i := 0; i < n; i++ {
		out := runInstance(f, g, v)
		for _, j := range nonzero {
			if out[j] == v[j] {
				keep[j]++
			}
		}
	}
	for _, j := range nonzero {
		gap := 2*keep[j]/n - 1
		tol := 6 / math.Sqrt(n)
		if math.Abs(gap-want) > tol {
			t.Errorf("coordinate %d: measured gap %v, want %v ± %v", j, gap, want, tol)
		}
	}
}

func TestOnlineMatchesOfflineFullSupport(t *testing.T) {
	// Section 5.3: with |supp(v)| = k, the online outputs on the support
	// must be distributed as R̃(b) for b the support pattern. We compare
	// the empirical distribution of the 3-bit support output against the
	// exact law via the sign-flip symmetry Pr[out = w] = Pr[R̃(b) = w].
	g := rng.New(7, 8)
	f := newFR(t, 3, 3, 1.0)
	v := []int8{-1, 1, -1}
	const n = 400000
	counts := make(map[[3]int8]int)
	for i := 0; i < n; i++ {
		out := runInstance(f, g, v)
		counts[[3]int8{out[0], out[1], out[2]}]++
	}
	for w, cnt := range counts {
		// Hamming distance between w and v on the support.
		dist := 0
		for j := 0; j < 3; j++ {
			if w[j] != v[j] {
				dist++
			}
		}
		want := f.Params().OutputProb(dist)
		got := float64(cnt) / n
		tol := 6*math.Sqrt(want*(1-want)/n) + 1e-9
		if math.Abs(got-want) > tol {
			t.Errorf("Pr[out=%v] = %v, want %v ± %v", w, got, want, tol)
		}
	}
}

func TestOnlineBoundedSupportMarginals(t *testing.T) {
	// Section 5.4: with |supp(v)| = σ < k, the support outputs follow the
	// prefix marginals of R̃(1^k): Pr[pattern with m1 mismatches] =
	// MarginalPrefix(σ, m1).
	g := rng.New(9, 10)
	f := newFR(t, 5, 4, 0.8)
	v := []int8{0, 1, 0, -1, 0} // σ = 2
	const n = 400000
	counts := make(map[[2]int8]int)
	for i := 0; i < n; i++ {
		out := runInstance(f, g, v)
		counts[[2]int8{out[1], out[3]}]++
	}
	for w, cnt := range counts {
		m1 := 0
		if w[0] != v[1] {
			m1++
		}
		if w[1] != v[3] {
			m1++
		}
		want := f.Params().MarginalPrefix(2, m1)
		got := float64(cnt) / n
		tol := 6*math.Sqrt(want*(1-want)/n) + 1e-9
		if math.Abs(got-want) > tol {
			t.Errorf("support pattern %v (m1=%d): %v, want %v ± %v", w, m1, got, want, tol)
		}
	}
}

func TestFutureRandDeterministicUnderSeed(t *testing.T) {
	f := newFR(t, 10, 3, 0.5)
	v := []int8{1, 0, -1, 0, 0, 1, 0, 0, 0, 0}
	a := runInstance(f, rng.New(42, 7), v)
	b := runInstance(f, rng.New(42, 7), v)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different outputs")
		}
	}
}

func TestInstancePanics(t *testing.T) {
	f := newFR(t, 3, 2, 1.0)
	g := rng.New(11, 12)
	// Too many inputs.
	func() {
		m := f.NewInstance(g)
		m.Perturb(0)
		m.Perturb(0)
		m.Perturb(0)
		defer func() {
			if recover() == nil {
				t.Error("4th input on L=3 did not panic")
			}
		}()
		m.Perturb(0)
	}()
	// Too many non-zeros.
	func() {
		m := f.NewInstance(g)
		m.Perturb(1)
		m.Perturb(1)
		defer func() {
			if recover() == nil {
				t.Error("3rd non-zero on k=2 did not panic")
			}
		}()
		m.Perturb(-1)
	}()
	// Bad value.
	func() {
		m := f.NewInstance(g)
		defer func() {
			if recover() == nil {
				t.Error("value 2 did not panic")
			}
		}()
		m.Perturb(2)
	}()
}

func TestFactoryValidation(t *testing.T) {
	if _, err := NewFutureRandFactory(0, 2, 1.0); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := NewFutureRandFactory(4, 0, 1.0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewFutureRandFactory(4, 2, 2.0); err == nil {
		t.Error("eps=2 accepted")
	}
	if _, err := NewBunFactory(4, 0, 1.0); err == nil {
		t.Error("Bun k=0 accepted")
	}
	if _, err := NewBasicFactory(0, 0.5); err == nil {
		t.Error("basic L=0 accepted")
	}
	if _, err := NewBasicFactory(4, 0); err == nil {
		t.Error("basic eps=0 accepted")
	}
	if _, err := NewIndependentFactory(4, 2, 0); err == nil {
		t.Error("independent eps=0 accepted")
	}
	if _, err := NewIndependentFactory(-1, 2, 1); err == nil {
		t.Error("independent L=-1 accepted")
	}
}

func TestFactoryMetadata(t *testing.T) {
	fr := newFR(t, 8, 4, 1.0)
	if fr.Name() != "futurerand" {
		t.Errorf("Name = %q", fr.Name())
	}
	if fr.L() != 8 || fr.K() != 4 {
		t.Error("L/K accessors wrong")
	}
	if fr.CGap() <= 0 {
		t.Error("CGap not positive")
	}
	if fr.Composed() == nil || fr.Params() == nil {
		t.Error("nil internals")
	}
	bun, err := NewBunFactory(8, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if bun.Name() != "bun-composed" {
		t.Errorf("Bun Name = %q", bun.Name())
	}
	if bun.Params().Lambda <= 0 {
		t.Error("Bun lambda missing")
	}
	basic, err := NewBasicFactory(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if basic.Name() != "basic" {
		t.Errorf("basic Name = %q", basic.Name())
	}
	if math.Abs(basic.CGap()-probmath.CGapBasic(0.5)) > 1e-15 {
		t.Error("basic CGap mismatch")
	}
	ind, err := NewIndependentFactory(4, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if ind.Name() != "independent-eps/k" {
		t.Errorf("independent Name = %q", ind.Name())
	}
}

func TestIndependentRandomizerGap(t *testing.T) {
	// Example 4.2: measured per-coordinate gap equals (e^{ε/k}−1)/(e^{ε/k}+1).
	g := rng.New(13, 14)
	f, err := NewIndependentFactory(3, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	keep := 0.0
	for i := 0; i < n; i++ {
		out := runInstance(f, g, []int8{0, -1, 1})
		if out[1] == -1 {
			keep++
		}
	}
	gap := 2*keep/n - 1
	if math.Abs(gap-f.CGap()) > 6/math.Sqrt(n) {
		t.Errorf("independent gap %v, want %v", gap, f.CGap())
	}
}

func TestBasicRandomizerGap(t *testing.T) {
	g := rng.New(15, 16)
	f, err := NewBasicFactory(1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	keep := 0.0
	for i := 0; i < n; i++ {
		if runInstance(f, g, []int8{1})[0] == 1 {
			keep++
		}
	}
	gap := 2*keep/n - 1
	if math.Abs(gap-f.CGap()) > 6/math.Sqrt(n) {
		t.Errorf("basic gap %v, want %v", gap, f.CGap())
	}
}

func TestBasicRandomizerNoNonzeroCap(t *testing.T) {
	// The basic factory places no sparsity cap: L non-zero inputs are fine.
	f, err := NewBasicFactory(5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m := f.NewInstance(rng.New(17, 18))
	for i := 0; i < 5; i++ {
		m.Perturb(1)
	}
}

func TestOnlineEqualsPrecomputedVector(t *testing.T) {
	// White-box: the j-th non-zero output must be exactly v_j·b̃_j for the
	// pre-computed b̃, independent of zero positions in between.
	f := newFR(t, 10, 4, 1.0)
	g1 := rng.New(99, 100)
	inst := f.NewInstance(g1)
	bt := bitvec.FromIndex(inst.btilde.Len(), inst.btilde.Index()) // a copy
	v := []int8{0, 1, 0, 0, -1, 1, 0, 0, 0, -1}
	nz := 0
	for _, x := range v {
		out := inst.Perturb(x)
		if x == 0 {
			continue
		}
		if want := x * bt.At(nz); out != want {
			t.Fatalf("non-zero #%d: output %d, want %d", nz, out, want)
		}
		nz++
	}
}

// NewBunFactory builds the Bun et al. composed randomizer (Appendix A.2)
// made online with the pre-computation technique, for comparison.
func NewBunFactory(l, k int, eps float64) (*ComposedFactory, error) {
	if err := checkLK(l, k); err != nil {
		return nil, err
	}
	p, err := probmath.NewBun(k, eps)
	if err != nil {
		return nil, err
	}
	return &ComposedFactory{l: l, k: k, params: p, composed: NewComposed(p.Annulus), name: "bun-composed"}, nil
}

// Params exposes the exact annulus parameters.
func (f *ComposedFactory) Params() *probmath.Params { return f.params }

// L returns the sequence length the factory was built for.
func (f *ComposedFactory) L() int { return f.l }

// K returns the sparsity bound.
func (f *ComposedFactory) K() int { return f.k }
