package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(1, 2)
	b := New(1, 2)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestNewFromSeedDistinct(t *testing.T) {
	a := NewFromSeed(7)
	b := NewFromSeed(8)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical words", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(42, 43)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children must differ from each other and from a fresh parent clone.
	ref := New(42, 43)
	ref.Split()
	ref.Split()
	matches := 0
	for i := 0; i < 256; i++ {
		x, y := c1.Uint64(), c2.Uint64()
		if x == y {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("sibling streams matched on %d/256 draws", matches)
	}
	// Parent stream must be reproducible regardless of splits.
	p2 := New(42, 43)
	p2.Split()
	p2.Split()
	for i := 0; i < 100; i++ {
		if parent.Uint64() != p2.Uint64() {
			t.Fatal("splitting perturbed the parent stream")
		}
	}
}

func TestNormalMoments(t *testing.T) {
	g := New(33, 34)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Normal()
		sum += x
		sumSq += x * x
	}
	if mean := sum / n; math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean %v", mean)
	}
	if v := sumSq / n; math.Abs(v-1) > 0.03 {
		t.Errorf("Normal variance %v", v)
	}
}

func TestBinomialApprox(t *testing.T) {
	g := New(35, 36)
	// Small case routes to the exact sampler.
	for i := 0; i < 1000; i++ {
		if v := g.BinomialApprox(10, 0.3); v < 0 || v > 10 {
			t.Fatalf("out of range %d", v)
		}
	}
	// Large case uses the normal approximation; check moments.
	const n, p, trials = 1000000, 0.4, 3000
	var sum float64
	for i := 0; i < trials; i++ {
		v := g.BinomialApprox(n, p)
		if v < 0 || v > n {
			t.Fatalf("out of range %d", v)
		}
		sum += float64(v)
	}
	mean := sum / trials
	want := float64(n) * p
	se := math.Sqrt(float64(n)*p*(1-p)) / math.Sqrt(trials)
	if math.Abs(mean-want) > 6*se {
		t.Errorf("BinomialApprox mean %v, want %v", mean, want)
	}
	if g.BinomialApprox(10, 0) != 0 || g.BinomialApprox(10, 1) != 10 {
		t.Error("degenerate cases wrong")
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := New(3, 4)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		const n = 200000
		c := 0
		for i := 0; i < n; i++ {
			if g.Bernoulli(p) {
				c++
			}
		}
		got := float64(c) / n
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("Bernoulli(%v) frequency %v, want within %v", p, got, tol)
		}
	}
	if g.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !g.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	if g.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !g.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
}

func TestSignAndBitBalance(t *testing.T) {
	g := New(5, 6)
	const n = 200000
	sum, ones := 0, 0
	for i := 0; i < n; i++ {
		s := g.Sign()
		if s != 1 && s != -1 {
			t.Fatalf("Sign returned %d", s)
		}
		sum += int(s)
		ones += int(g.Bit())
	}
	if math.Abs(float64(sum)) > 5*math.Sqrt(n) {
		t.Errorf("Sign sum %d too far from 0", sum)
	}
	if math.Abs(float64(ones)-n/2) > 5*math.Sqrt(n)/2 {
		t.Errorf("Bit count %d too far from %d", ones, n/2)
	}
}

func TestLaplaceMoments(t *testing.T) {
	g := New(7, 8)
	const n = 400000
	scale := 3.0
	var sum, sumAbs, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Laplace(scale)
		sum += x
		sumAbs += math.Abs(x)
		sumSq += x * x
	}
	mean := sum / n
	meanAbs := sumAbs / n
	variance := sumSq / n
	if math.Abs(mean) > 0.1 {
		t.Errorf("Laplace mean %v, want ~0", mean)
	}
	if math.Abs(meanAbs-scale) > 0.1 {
		t.Errorf("Laplace E|X| = %v, want %v", meanAbs, scale)
	}
	if math.Abs(variance-2*scale*scale) > 0.7 {
		t.Errorf("Laplace var %v, want %v", variance, 2*scale*scale)
	}
}

func TestGeometricMean(t *testing.T) {
	g := New(9, 10)
	for _, p := range []float64{0.05, 0.3, 0.9, 1.0} {
		const n = 100000
		sum := 0
		for i := 0; i < n; i++ {
			v := g.Geometric(p)
			if v < 0 {
				t.Fatalf("Geometric(%v) = %d < 0", p, v)
			}
			sum += v
		}
		want := (1 - p) / p
		got := float64(sum) / n
		sd := math.Sqrt((1-p)/(p*p)) / math.Sqrt(n)
		if math.Abs(got-want) > 6*sd+1e-9 {
			t.Errorf("Geometric(%v) mean %v, want %v ± %v", p, got, want, 6*sd)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	g := New(1, 1)
	for _, p := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) did not panic", p)
				}
			}()
			g.Geometric(p)
		}()
	}
}

func TestBinomialHalfMoments(t *testing.T) {
	g := New(11, 12)
	for _, n := range []int{1, 7, 63, 64, 65, 1000} {
		const trials = 50000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			v := g.BinomialHalf(n)
			if v < 0 || v > n {
				t.Fatalf("BinomialHalf(%d) = %d out of range", n, v)
			}
			f := float64(v)
			sum += f
			sumSq += f * f
		}
		mean := sum / float64(trials)
		variance := sumSq/trials - mean*mean
		wantMean, wantVar := float64(n)/2, float64(n)/4
		if math.Abs(mean-wantMean) > 6*math.Sqrt(wantVar/trials)+1e-9 {
			t.Errorf("BinomialHalf(%d) mean %v, want %v", n, mean, wantMean)
		}
		if n >= 7 && math.Abs(variance-wantVar)/wantVar > 0.1 {
			t.Errorf("BinomialHalf(%d) var %v, want %v", n, variance, wantVar)
		}
	}
	if g.BinomialHalf(0) != 0 {
		t.Error("BinomialHalf(0) != 0")
	}
}

func TestBinomialAllPaths(t *testing.T) {
	g := New(13, 14)
	cases := []struct {
		n      int
		p      float64
		trials int
	}{
		{50, 0.3, 20000},    // direct path
		{5000, 0.001, 5000}, // geometric-skip path
		{20000, 0.3, 1500},  // median-split path
		{20000, 0.7, 1500},  // complement + split
		{200, 0.5, 20000},   // popcount path
		{10, 0, 1000},       // degenerate
		{10, 1, 1000},       // degenerate
	}
	for _, c := range cases {
		trials := c.trials
		sum := 0.0
		for i := 0; i < trials; i++ {
			v := g.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", c.n, c.p, v)
			}
			sum += float64(v)
		}
		mean := sum / float64(trials)
		want := float64(c.n) * c.p
		sd := math.Sqrt(float64(c.n)*c.p*(1-c.p)/float64(trials)) + 1e-12
		if math.Abs(mean-want) > 6*sd+1e-9 {
			t.Errorf("Binomial(%d,%v) mean %v, want %v ± %v", c.n, c.p, mean, want, 6*sd)
		}
	}
}

func TestSignedBinomialHalfSum(t *testing.T) {
	g := New(15, 16)
	for _, n := range []int{0, 1, 5, 128} {
		for i := 0; i < 1000; i++ {
			v := g.SignedBinomialHalfSum(n)
			if v < -n || v > n {
				t.Fatalf("sum of %d signs = %d out of range", n, v)
			}
			if (v+n)%2 != 0 {
				t.Fatalf("sum of %d signs = %d has wrong parity", n, v)
			}
		}
	}
}

func TestKSubsetProperties(t *testing.T) {
	g := New(17, 18)
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw) % (n + 1)
		s := g.KSubset(n, k)
		if len(s) != k {
			return false
		}
		for i, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && s[i] <= s[i-1] {
				return false // must be strictly increasing (sorted, distinct)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKSubsetUniform(t *testing.T) {
	// Both the dense (3k >= n) and sparse branches must select each element
	// with probability k/n.
	g := New(19, 20)
	for _, tc := range []struct{ n, k int }{{10, 6}, {100, 3}} {
		const trials = 60000
		counts := make([]int, tc.n)
		for i := 0; i < trials; i++ {
			for _, v := range g.KSubset(tc.n, tc.k) {
				counts[v]++
			}
		}
		want := float64(trials) * float64(tc.k) / float64(tc.n)
		for v, c := range counts {
			if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
				t.Errorf("KSubset(%d,%d): element %d chosen %d times, want ~%v", tc.n, tc.k, v, c, want)
			}
		}
	}
}

func TestKSubsetEdge(t *testing.T) {
	g := New(21, 22)
	if s := g.KSubset(5, 0); len(s) != 0 {
		t.Errorf("KSubset(5,0) = %v, want empty", s)
	}
	s := g.KSubset(5, 5)
	for i, v := range s {
		if v != i {
			t.Errorf("KSubset(5,5) = %v, want identity", s)
			break
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("KSubset(2,3) did not panic")
			}
		}()
		g.KSubset(2, 3)
	}()
}

func TestZipf(t *testing.T) {
	g := New(23, 24)
	z := g.NewZipf(50, 1.2)
	const trials = 200000
	counts := make([]int, 50)
	for i := 0; i < trials; i++ {
		v := z.Sample()
		if v < 0 || v >= 50 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[40] {
		t.Errorf("Zipf counts not decreasing: c0=%d c10=%d c40=%d", counts[0], counts[10], counts[40])
	}
	// Check the head frequency against the exact pmf.
	var z0 float64
	for i := 1; i <= 50; i++ {
		z0 += math.Pow(float64(i), -1.2)
	}
	want := 1 / z0
	got := float64(counts[0]) / trials
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Zipf head frequency %v, want %v", got, want)
	}

	u := g.NewZipf(8, 0)
	counts = make([]int, 8)
	for i := 0; i < 80000; i++ {
		counts[u.Sample()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-10000) > 600 {
			t.Errorf("Zipf(s=0) element %d count %d, want ~10000", i, c)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	g := New(25, 26)
	for _, f := range []func(){
		func() { g.NewZipf(0, 1) },
		func() { g.NewZipf(10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("NewZipf with invalid args did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(27, 28)
	for i := 0; i < 100000; i++ {
		v := g.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestIntNRange(t *testing.T) {
	g := New(29, 30)
	seen := make([]bool, 7)
	for i := 0; i < 10000; i++ {
		v := g.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN(7) = %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Errorf("IntN(7) never produced %d", i)
		}
	}
}

func TestPerm(t *testing.T) {
	g := New(31, 32)
	p := g.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("Perm repeated %d", v)
		}
		seen[v] = true
	}
}

// TestRNGInPlaceSeedMatchesNew pins the in-place seeding entry against
// the allocating constructor: the same mixed draws, word for word, the
// same Split children, and a re-Seed that restarts the stream (Split
// counter included). It also pins that the math/rand/v2
// view behind Float64/IntN costs no allocation.
func TestRNGInPlaceSeedMatchesNew(t *testing.T) {
	draw := func(g *RNG, i int) uint64 {
		switch i % 4 {
		case 0:
			return g.Uint64()
		case 1:
			return math.Float64bits(g.Float64())
		case 2:
			return uint64(g.IntN(1 + i))
		default:
			return uint64(uint8(g.Sign()))
		}
	}
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		want := NewFromSeed(seed)
		var holder struct {
			pad [3]uint64
			g   RNG
		}
		got := &holder.g
		got.Seed(seed)
		for i := 0; i < 1000; i++ {
			if a, b := draw(got, i), draw(want, i); a != b {
				t.Fatalf("seed %d draw %d: in-place %#x, NewFromSeed %#x", seed, i, a, b)
			}
		}
		for i := 0; i < 3; i++ {
			if a, b := got.Split().Uint64(), want.Split().Uint64(); a != b {
				t.Fatalf("seed %d: Split child %d differs", seed, i)
			}
		}
		got.Seed(seed)
		fresh := NewFromSeed(seed)
		if got.Uint64() != fresh.Uint64() || got.Split().Uint64() != fresh.Split().Uint64() {
			t.Fatalf("seed %d: re-seeding did not restart the stream", seed)
		}
	}
	// The stream itself, pinned from the generator this one replaced (a
	// rand.Rand over a heap PCG): direct and math/rand/v2 draws interleave
	// over one state.
	p := NewFromSeed(42)
	got := []uint64{p.Uint64(), math.Float64bits(p.Float64()), uint64(p.IntN(1000)), uint64(p.Perm(5)[0]),
		math.Float64bits(p.Normal()), p.Split().Uint64(), p.Uint64()}
	want := []uint64{0x61c88529c9612c1b, 0x3fd1b1460eb542d0, 328, 3,
		0xbfdcc344294e22a8, 0x9bd62670a7ada3ac, 0xb861fcb318761276}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pinned draw %d: %#x, want %#x", i, got[i], want[i])
		}
	}
	g := NewFromSeed(3)
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		g.Seed(3)
		sink += g.Float64() + float64(g.IntN(10)) + g.Normal() + float64(g.Sign())
	}); n != 0 {
		t.Errorf("Seed + Float64 + IntN + Normal + Sign allocate %v times, want 0", n)
	}
	_ = sink
}

// Bit returns 0 or 1 with equal probability.
func (g *RNG) Bit() uint8 { return uint8(g.pcg.Uint64() & 1) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.rand().Perm(n) }
