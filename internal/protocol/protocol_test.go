package protocol

import (
	"math"
	"testing"

	"rtf/internal/core"
	"rtf/internal/dyadic"
	"rtf/internal/probmath"
	"rtf/internal/rng"
	"rtf/internal/sparse"
)

func frFactories(t *testing.T, d, k int, eps float64) []core.Factory {
	t.Helper()
	fs, err := FutureRandFactories(d, k, eps)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestSampleOrderRange(t *testing.T) {
	g := rng.New(1, 2)
	counts := make([]int, dyadic.NumOrders(64))
	for i := 0; i < 70000; i++ {
		h := SampleOrder(g, 64)
		if h < 0 || h > 6 {
			t.Fatalf("order %d out of range", h)
		}
		counts[h]++
	}
	for h, c := range counts {
		if math.Abs(float64(c)-10000) > 600 {
			t.Errorf("order %d sampled %d times, want ~10000", h, c)
		}
	}
}

func TestFactoryTables(t *testing.T) {
	d, k := 32, 3
	for name, build := range map[string]func() ([]core.Factory, error){
		"futurerand":  func() ([]core.Factory, error) { return FutureRandFactories(d, k, 1.0) },
		"independent": func() ([]core.Factory, error) { return IndependentFactories(d, k, 1.0) },
		"bun":         func() ([]core.Factory, error) { return BunFactories(d, k, 1.0) },
		"erlingsson":  func() ([]core.Factory, error) { return ErlingssonFactories(d, 1.0) },
	} {
		fs, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(fs) != dyadic.NumOrders(d) {
			t.Fatalf("%s: %d factories, want %d", name, len(fs), dyadic.NumOrders(d))
		}
		for h, f := range fs {
			if f.CGap() <= 0 {
				t.Errorf("%s order %d: non-positive c_gap", name, h)
			}
		}
	}
	if _, err := FutureRandFactories(31, 3, 1.0); err == nil {
		t.Error("non-power-of-two d accepted")
	}
	if _, err := FutureRandFactories(32, 0, 1.0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := BunFactories(32, 3, 7.0); err == nil {
		t.Error("eps=7 accepted")
	}
}

func TestClientReportingSchedule(t *testing.T) {
	// Algorithm 1: a client with order h reports exactly at multiples of
	// 2^h, with index j = t/2^h.
	d := 32
	fs := frFactories(t, d, 2, 1.0)
	g := rng.New(3, 4)
	for h := 0; h <= 5; h++ {
		c := NewClientWithOrder(7, d, h, fs[h], g)
		if c.Order() != h || c.User() != 7 {
			t.Fatalf("metadata wrong: order %d user %d", c.Order(), c.User())
		}
		for tt := 1; tt <= d; tt++ {
			rep, ok := c.Observe(false)
			wantOK := tt%(1<<uint(h)) == 0
			if ok != wantOK {
				t.Fatalf("h=%d t=%d: report=%v, want %v", h, tt, ok, wantOK)
			}
			if ok {
				if rep.Order != h || rep.J != tt>>uint(h) || rep.User != 7 {
					t.Fatalf("h=%d t=%d: report %+v", h, tt, rep)
				}
				if rep.Bit != 1 && rep.Bit != -1 {
					t.Fatalf("report bit %d", rep.Bit)
				}
			}
		}
	}
}

// TestClientSumsMatchPartialSums checks the boundary state the client
// carries (Observation 3.7: the stream value at the previous multiple
// of 2^h) against sparse.PartialSum at every order, for seeded clients
// and clients drawing from a caller's generator alike. The randomizer is
// made transparent for non-zero sums (ε̃ = 60 keeps a sign with
// probability 1.0 in float64) and its non-zero cap is set to the
// stream's exact support at that order, so a spurious non-zero panics
// and a dropped one becomes a fair coin that disagrees half the time.
func TestClientSumsMatchPartialSums(t *testing.T) {
	const d = 64
	g := rng.New(5, 6)
	for trial := 0; trial < 100; trial++ {
		st := make([]uint8, d)
		v := uint8(0)
		for i := range st {
			if g.Bernoulli(0.15) {
				v = 1 - v
			}
			st[i] = v
		}
		for h := 0; h <= dyadic.Log2(d); h++ {
			k := max(1, sparse.SupportAtOrder(st, h))
			fs, err := FactoryTable(d, k, 60*float64(k), func(l, k int, eps float64) (core.Factory, error) {
				return core.NewIndependentFactory(l, k, eps)
			})
			if err != nil {
				t.Fatal(err)
			}
			shared := NewClientWithOrder(0, d, h, fs[h], g)
			var seeded *Client
			for seed := int64(trial); seeded == nil || seeded.Order() != h; seed += 1000 {
				seeded = NewSeededClient(0, d, 0, fs, seed)
			}
			for tt := 1; tt <= d; tt++ {
				for name, c := range map[string]*Client{"shared": shared, "seeded": seeded} {
					rep, ok := c.Observe(st[tt-1] != 0)
					if !ok {
						continue
					}
					want := sparse.PartialSum(st, dyadic.Interval{Order: h, Index: rep.J})
					if want != 0 && rep.Bit != want {
						t.Fatalf("trial %d h=%d j=%d (%s): reported %d for partial sum %d", trial, h, rep.J, name, rep.Bit, want)
					}
				}
			}
		}
	}
}

func TestClientTooManyObservations(t *testing.T) {
	fs := frFactories(t, 4, 1, 1.0)
	c := NewClientWithOrder(0, 4, 0, fs[0], rng.New(5, 6))
	for tt := 0; tt < 4; tt++ {
		c.Observe(true)
	}
	defer func() {
		if recover() == nil {
			t.Error("5th observation did not panic")
		}
	}()
	c.Observe(true)
}

func TestNewClientSamplesOrder(t *testing.T) {
	fs := frFactories(t, 16, 2, 1.0)
	g := rng.New(7, 8)
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		c := NewClient(i, 16, fs, g)
		seen[c.Order()] = true
	}
	if len(seen) != dyadic.NumOrders(16) {
		t.Errorf("only %d/%d orders sampled in 200 clients", len(seen), dyadic.NumOrders(16))
	}
}

func TestClientWithOrderPanics(t *testing.T) {
	fs := frFactories(t, 8, 1, 1.0)
	defer func() {
		if recover() == nil {
			t.Error("order out of range did not panic")
		}
	}()
	NewClientWithOrder(0, 8, 4, fs[0], rng.New(9, 10))
}

func TestClippedClientSurvivesExcessChanges(t *testing.T) {
	// A stream with 8 changes fed to a client with budget k=2 must not
	// panic and must report on schedule.
	d := 16
	fs := frFactories(t, d, 2, 1.0)
	g := rng.New(41, 42)
	vals := []uint8{1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	for trial := 0; trial < 100; trial++ {
		c := NewClippedClient(0, d, 2, fs, g)
		n := 0
		for tt := 1; tt <= d; tt++ {
			if _, ok := c.Observe(vals[tt-1] != 0); ok {
				n++
			}
		}
		if want := d >> uint(c.Order()); n != want {
			t.Fatalf("%d reports, want %d", n, want)
		}
	}
}

func TestClippedClientFreezesAfterBudget(t *testing.T) {
	// With k=2 the effective stream follows the true one through changes
	// 1 and 2, then freezes. Verify via order-0 clients whose reports
	// reveal the effective partial sums statistically: after freezing at
	// value 1 (changes at t=2: 0→1, t=4: 1→0 — wait, budget 2 admits
	// both, freezing at the value after change 2). Use budget 1: only the
	// first change applies, so the effective stream is 0,1,1,1,... and
	// the order-0 partial sums are (0,+1,0,0,...).
	d := 8
	fs := frFactories(t, d, 1, 1.0)
	g := rng.New(43, 44)
	vals := []uint8{0, 1, 1, 0, 0, 1, 1, 1} // changes at 2, 4, 6
	const trials = 30000
	keep := make([]float64, d)
	var cgap float64
	for trial := 0; trial < trials; trial++ {
		var c *Client
		for {
			c = NewClippedClient(0, d, 1, fs, g)
			if c.Order() == 0 {
				break
			}
		}
		cgap = fs[0].CGap()
		for tt := 1; tt <= d; tt++ {
			rep, ok := c.Observe(vals[tt-1] != 0)
			if !ok {
				t.Fatal("order-0 client must report every period")
			}
			if rep.Bit == 1 {
				keep[tt-1]++
			}
		}
	}
	// Effective derivative should be (0,+1,0,0,0,0,0,0):
	// E[bit_t] = cgap·X_eff[t].
	for tt := 1; tt <= d; tt++ {
		mean := 2*keep[tt-1]/trials - 1
		want := 0.0
		if tt == 2 {
			want = cgap
		}
		if math.Abs(mean-want) > 6/math.Sqrt(trials) {
			t.Errorf("t=%d: E[bit] = %v, want %v", tt, mean, want)
		}
	}
}

func TestClippedClientMatchesUnclippedWithinBudget(t *testing.T) {
	// When the stream respects the bound, clipping must be a no-op: same
	// reports for the same seed.
	d := 16
	fs := frFactories(t, d, 3, 1.0)
	vals := []uint8{0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	a := NewClippedClient(0, d, 3, fs, rng.New(45, 46))
	b := NewClient(0, d, fs, rng.New(45, 46))
	for tt := 1; tt <= d; tt++ {
		ra, oka := a.Observe(vals[tt-1] != 0)
		rb, okb := b.Observe(vals[tt-1] != 0)
		if oka != okb || ra != rb {
			t.Fatalf("t=%d: clipped %v/%v, unclipped %v/%v", tt, ra, oka, rb, okb)
		}
	}
}

func TestClippedClientPanicsOnBadBudget(t *testing.T) {
	fs := frFactories(t, 4, 1, 1.0)
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	NewClippedClient(0, 4, 0, fs, rng.New(1, 1))
}

func TestServerDeterministicAggregation(t *testing.T) {
	// Feed known reports and check Algorithm 2's arithmetic exactly.
	d := 8
	scale := 2.5
	s := NewServer(d, scale)
	s.Register(0)
	s.Register(1)
	s.Register(1)
	if s.Users() != 3 || s.UsersAtOrder(1) != 2 {
		t.Fatalf("registration counts wrong")
	}
	// Order-0 interval [1..1]: two +1 bits; order-1 interval [1..2]: -1.
	s.Ingest(Report{User: 0, Order: 0, J: 1, Bit: 1})
	s.Ingest(Report{User: 1, Order: 0, J: 1, Bit: 1})
	s.Ingest(Report{User: 2, Order: 1, J: 1, Bit: -1})
	if got := s.IntervalEstimate(dyadic.Interval{Order: 0, Index: 1}); got != 5 {
		t.Errorf("Ŝ(I_{0,1}) = %v, want 5", got)
	}
	// â[1] = Ŝ(I_{0,1}) = 5; â[2] = Ŝ(I_{1,1}) = −2.5;
	// â[3] = Ŝ(I_{1,1}) + Ŝ(I_{0,3}) = −2.5.
	if got := s.EstimateAt(1); got != 5 {
		t.Errorf("â[1] = %v", got)
	}
	if got := s.EstimateAt(2); got != -2.5 {
		t.Errorf("â[2] = %v", got)
	}
	if got := s.EstimateAt(3); got != -2.5 {
		t.Errorf("â[3] = %v", got)
	}
}

func TestEstimateSeriesMatchesEstimateAt(t *testing.T) {
	d := 64
	s := NewServer(d, 1.5)
	g := rng.New(11, 12)
	// Random sums everywhere.
	for _, iv := range dyadic.All(d) {
		s.IngestSum(iv, int64(g.IntN(21)-10))
	}
	series := s.EstimateSeries()
	for tt := 1; tt <= d; tt++ {
		if math.Abs(series[tt-1]-s.EstimateAt(tt)) > 1e-9 {
			t.Fatalf("series[%d] = %v, EstimateAt = %v", tt, series[tt-1], s.EstimateAt(tt))
		}
	}
}

func TestServerPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad d":     func() { NewServer(6, 1) },
		"bad scale": func() { NewServer(8, 0) },
		"nan scale": func() { NewServer(8, math.NaN()) },
		"bad bit":   func() { NewServer(8, 1).Ingest(Report{Order: 0, J: 1, Bit: 0}) },
		"bad order": func() { NewServer(8, 1).Register(4) },
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

func TestEstimatorScale(t *testing.T) {
	// (1 + log2 d)/c_gap.
	got := EstimatorScale(16, 0.5)
	if math.Abs(got-10) > 1e-12 {
		t.Errorf("EstimatorScale = %v, want 10", got)
	}
}

func TestErlingssonScale(t *testing.T) {
	want := 4 * 5 / probmath.CGapBasic(0.5)
	if got := ErlingssonScale(16, 4, 1.0); math.Abs(got-want) > 1e-9 {
		t.Errorf("ErlingssonScale = %v, want %v", got, want)
	}
}

func TestErlingssonClientSparsification(t *testing.T) {
	// White box: whatever the true stream, the shadow stream flips at most
	// once, so at most one report per client is based on a non-zero sum.
	// With order 0 every interval is one period, so the reports reveal the
	// shadow's derivative directly when c_gap = 1 ... instead we verify
	// via the reporting pattern with a deterministic keep index.
	d := 16
	fs, err := ErlingssonFactories(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(13, 14)
	// Stream with 3 changes at t = 2, 5, 9.
	vals := []uint8{0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	for trial := 0; trial < 50; trial++ {
		c := NewErlingssonClient(0, d, 3, fs, g)
		n := 0
		for tt := 1; tt <= d; tt++ {
			if _, ok := c.Observe(vals[tt-1] != 0); ok {
				n++
			}
		}
		if want := d >> uint(c.Order()); n != want {
			t.Fatalf("order %d: %d reports, want %d", c.Order(), n, want)
		}
	}
}

func TestErlingssonKeepsOneSignedChange(t *testing.T) {
	// With k=2 and changes at t=2 (0→1) and t=5 (1→0), the client keeps
	// exactly one change, each with probability 1/2, with its true sign.
	d := 8
	fs, err := ErlingssonFactories(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	vals := []uint8{0, 1, 1, 1, 0, 0, 0, 0}
	g := rng.New(15, 16)
	keptAt2, keptAt5 := 0, 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		c := NewErlingssonClient(0, d, 2, fs, g)
		for tt := 1; tt <= d; tt++ {
			c.Observe(vals[tt-1] != 0)
		}
		switch c.keptTime {
		case 2:
			keptAt2++
			if c.keptSign != 1 {
				t.Fatalf("kept 0→1 change with sign %d", c.keptSign)
			}
		case 5:
			keptAt5++
			if c.keptSign != -1 {
				t.Fatalf("kept 1→0 change with sign %d", c.keptSign)
			}
		default:
			t.Fatalf("kept change at t=%d", c.keptTime)
		}
	}
	// Each change is kept with probability exactly 1/k = 1/2.
	for _, c := range []int{keptAt2, keptAt5} {
		if math.Abs(float64(c)-trials/2) > 6*math.Sqrt(trials)/2 {
			t.Errorf("change kept %d/%d times, want ~%d", c, trials, trials/2)
		}
	}
}

func TestErlingssonFewerChangesThanK(t *testing.T) {
	// A user with 1 change and k=3 keeps it with probability exactly 1/3.
	d := 8
	fs, err := ErlingssonFactories(d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	vals := []uint8{0, 0, 0, 1, 1, 1, 1, 1}
	g := rng.New(21, 22)
	kept := 0
	const trials = 6000
	for i := 0; i < trials; i++ {
		c := NewErlingssonClient(0, d, 3, fs, g)
		for tt := 1; tt <= d; tt++ {
			c.Observe(vals[tt-1] != 0)
		}
		if c.keptTime != 0 {
			kept++
		}
	}
	want := float64(trials) / 3
	if math.Abs(float64(kept)-want) > 6*math.Sqrt(want) {
		t.Errorf("kept %d/%d, want ~%v", kept, trials, want)
	}
}

func TestNaiveSplitDebiasing(t *testing.T) {
	// With all users at value 1 the estimator must average to n; with all
	// at 0, to 0.
	d := 4
	eps := 1.0
	g := rng.New(17, 18)
	const n, trials = 50, 2000
	sum1, sum0 := 0.0, 0.0
	for trial := 0; trial < trials; trial++ {
		s := NewNaiveSplitServer(d, eps)
		for u := 0; u < n; u++ {
			c := NewNaiveSplitClient(u, d, eps, g)
			s.Register()
			for tt := 1; tt <= d; tt++ {
				s.Ingest(c.Observe(1))
			}
		}
		sum1 += s.EstimateAt(2)
		s0 := NewNaiveSplitServer(d, eps)
		for u := 0; u < n; u++ {
			c := NewNaiveSplitClient(u, d, eps, g)
			s0.Register()
			for tt := 1; tt <= d; tt++ {
				s0.Ingest(c.Observe(0))
			}
		}
		sum0 += s0.EstimateAt(2)
	}
	// σ(â) ≈ √n/(2c); stderr over trials.
	c := probmath.CGapBasic(eps / float64(d))
	se := math.Sqrt(float64(n)) / (2 * c) / math.Sqrt(trials)
	if got := sum1 / trials; math.Abs(got-n) > 6*se {
		t.Errorf("all-ones estimate %v, want %d ± %v", got, n, 6*se)
	}
	if got := sum0 / trials; math.Abs(got) > 6*se {
		t.Errorf("all-zeros estimate %v, want 0 ± %v", got, 6*se)
	}
}

func TestNaiveSplitPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad eps":    func() { NewNaiveSplitClient(0, 4, 0, rng.New(1, 1)) },
		"bad d":      func() { NewNaiveSplitClient(0, 0, 1, rng.New(1, 1)) },
		"overfeed":   func() { c := NewNaiveSplitClient(0, 1, 1, rng.New(1, 1)); c.Observe(0); c.Observe(0) },
		"bad value":  func() { NewNaiveSplitClient(0, 4, 1, rng.New(1, 1)).Observe(3) },
		"bad report": func() { NewNaiveSplitServer(4, 1).Ingest(NaiveReport{T: 5, Bit: 1}) },
		"erl k=0":    func() { NewErlingssonClient(0, 8, 0, nil, rng.New(1, 1)) },
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

func TestErlingssonObserveOverfeedPanics(t *testing.T) {
	fs, err := ErlingssonFactories(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewErlingssonClient(0, 2, 1, fs, rng.New(19, 20))
	c.Observe(false)
	c.Observe(false)
	defer func() {
		if recover() == nil {
			t.Error("overfeed did not panic")
		}
	}()
	c.Observe(false)
}

func TestServerAccessors(t *testing.T) {
	s := NewServer(16, 2)
	if s.D() != 16 || s.Scale() != 2 || s.Tree().D() != 16 {
		t.Error("accessors wrong")
	}
	if len(s.IntervalSums()) != dyadic.TotalIntervals(16) {
		t.Error("IntervalSums length wrong")
	}
}

func TestEstimateChangeMatchesPrefixDifference(t *testing.T) {
	// EstimateChange(l, r) and EstimateAt(r) − EstimateAt(l−1) are both
	// unbiased for a[r] − a[l−1]; on the *same* server state they are
	// generally different linear combinations, but both must equal the
	// exact change when every interval sum is consistent. Build such a
	// state from a noiseless tree.
	d := 64
	s := NewServer(d, 1)
	g := rng.New(31, 32)
	leaf := make([]int64, d+1)
	for j := 1; j <= d; j++ {
		leaf[j] = int64(g.IntN(7) - 3)
	}
	for _, iv := range dyadic.All(d) {
		var sum int64
		for tt := iv.Start(); tt <= iv.End(); tt++ {
			sum += leaf[tt]
		}
		s.IngestSum(iv, sum)
	}
	for l := 1; l <= d; l += 7 {
		for r := l; r <= d; r += 5 {
			var want float64
			for tt := l; tt <= r; tt++ {
				want += float64(leaf[tt])
			}
			if got := s.EstimateChange(l, r); math.Abs(got-want) > 1e-9 {
				t.Fatalf("EstimateChange(%d,%d) = %v, want %v", l, r, got, want)
			}
			prefixDiff := s.EstimateAt(r)
			if l > 1 {
				prefixDiff -= s.EstimateAt(l - 1)
			}
			if math.Abs(prefixDiff-want) > 1e-9 {
				t.Fatalf("prefix difference (%d,%d) = %v, want %v", l, r, prefixDiff, want)
			}
		}
	}
}

func TestServerMerge(t *testing.T) {
	a := NewServer(8, 2)
	b := NewServer(8, 2)
	a.Register(0)
	b.Register(1)
	b.Register(1)
	a.Ingest(Report{Order: 0, J: 1, Bit: 1})
	b.Ingest(Report{Order: 0, J: 1, Bit: 1})
	b.Ingest(Report{Order: 1, J: 2, Bit: -1})
	a.Merge(b)
	if a.Users() != 3 || a.UsersAtOrder(1) != 2 {
		t.Errorf("merged users wrong: %d", a.Users())
	}
	if got := a.IntervalEstimate(dyadic.Interval{Order: 0, Index: 1}); got != 4 {
		t.Errorf("merged sum = %v, want 4", got)
	}
	if got := a.IntervalEstimate(dyadic.Interval{Order: 1, Index: 2}); got != -2 {
		t.Errorf("merged sum = %v, want -2", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("incompatible merge did not panic")
		}
	}()
	a.Merge(NewServer(16, 2))
}

// IntervalEstimate returns Ŝ(I) = scale · Σ bits for one interval.
func (s *Server) IntervalEstimate(iv dyadic.Interval) float64 {
	return s.scale * float64(s.sums[s.tree.FlatIndex(iv)])
}

// Merge adds another server's accumulated state into s. Both must have
// the same horizon and scale.
func (s *Server) Merge(o *Server) {
	if o.d != s.d || o.scale != s.scale {
		panic("protocol: merging incompatible servers")
	}
	for i, v := range o.sums {
		s.sums[i] += v
	}
	s.users += o.users
	for h, c := range o.perOrder {
		s.perOrder[h] += c
	}
}

// User returns the client's user id.
func (r *reporter) User() int { return r.user }
