package ldp

import (
	"math"
	"testing"

	"rtf/internal/stats"
)

func TestCGapAndErrorBound(t *testing.T) {
	c, err := CGap(16, 1.0)
	if err != nil || c <= 0 {
		t.Fatalf("CGap = %v, %v", c, err)
	}
	// Ω(ε/√k): normalized constant in the measured band.
	if norm := c * 4; norm < 0.06 || norm > 0.11 {
		t.Errorf("c_gap·√k = %v outside expected band", norm)
	}
	if _, err := CGap(0, 1.0); err == nil {
		t.Error("k=0 accepted")
	}
	b, err := ErrorBound(10000, 256, 4, 1.0, 0.05)
	if err != nil || b <= 0 {
		t.Fatalf("ErrorBound = %v, %v", b, err)
	}
}

func TestStreamingClientServerEndToEnd(t *testing.T) {
	// Run the public streaming API manually and check the estimates are
	// sane on an all-ones workload.
	const n, d, k = 400, 16, 1
	srv, err := NewServer(d, WithSparsity(k), WithEpsilon(1.0))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		c, err := NewClient(u, d, WithSparsity(k), WithEpsilon(1.0), WithSeed(int64(u)))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(c.Order()); err != nil {
			t.Fatal(err)
		}
		for tt := 1; tt <= d; tt++ {
			if rep, ok := c.Observe(true); ok { // all users hold 1 from t=1
				if err := srv.Ingest(rep); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if srv.Users() != n {
		t.Fatalf("registered %d users", srv.Users())
	}
	series := srv.Estimates()
	if len(series) != d {
		t.Fatalf("series length %d", len(series))
	}
	est, err := srv.EstimateAt(d)
	if err != nil {
		t.Fatal(err)
	}
	if est != series[d-1] {
		t.Error("EstimateAt disagrees with Estimates")
	}
	// True count is n at every time; the estimate should be within a few
	// noise standard deviations (σ ≈ scale·√n ≈ 350 here).
	if math.Abs(est-n) > 2500 {
		t.Errorf("estimate %v wildly off truth %d", est, n)
	}
}

func TestStreamingValidation(t *testing.T) {
	if _, err := NewClient(0, 6); err == nil {
		t.Error("non-power-of-two d accepted")
	}
	if _, err := NewClient(0, 8, WithSparsity(0)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewServer(6); err == nil {
		t.Error("server bad d accepted")
	}
	srv, err := NewServer(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(9); err == nil {
		t.Error("bad order accepted")
	}
	if err := srv.Ingest(Report{Order: 0, J: 1, Bit: 0}); err == nil {
		t.Error("bad bit accepted")
	}
	if err := srv.Ingest(Report{Order: 9, J: 1, Bit: 1}); err == nil {
		t.Error("bad order accepted")
	}
	if err := srv.Ingest(Report{Order: 0, J: 9, Bit: 1}); err == nil {
		t.Error("bad index accepted")
	}
	if _, err := srv.EstimateAt(0); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := srv.EstimateAt(9); err == nil {
		t.Error("t>d accepted")
	}
	// Feeding a client past its horizon is a caller bug: Observe keeps its
	// (Report, bool) signature and panics, with this message.
	c, err := NewClient(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(true)
	c.Observe(true)
	defer func() {
		if r := recover(); r != "protocol: more observations than time periods" {
			t.Errorf("third Observe on d=2 recovered %v, want the documented horizon panic", r)
		}
	}()
	c.Observe(true)
}

func TestClippedClientPublic(t *testing.T) {
	c, err := NewClippedClient(0, 8, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	// Feed a stream with 4 changes; must not panic with budget 1.
	vals := []bool{true, false, true, false, false, false, false, false}
	reports := 0
	for _, v := range vals {
		if _, ok := c.Observe(v); ok {
			reports++
		}
	}
	if want := 8 >> uint(c.Order()); reports != want {
		t.Errorf("%d reports, want %d", reports, want)
	}
	if _, err := NewClippedClient(0, 6); err == nil {
		t.Error("bad d accepted")
	}
	if _, err := NewClippedClient(0, 8, WithSparsity(0)); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestEstimateChangePublic(t *testing.T) {
	srv, err := NewServer(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.EstimateChange(1, 16); err != nil {
		t.Errorf("valid range rejected: %v", err)
	}
	for _, bad := range [][2]int{{0, 4}, {4, 17}, {9, 5}} {
		if _, err := srv.EstimateChange(bad[0], bad[1]); err == nil {
			t.Errorf("range %v accepted", bad)
		}
	}
}

func TestDomainTracking(t *testing.T) {
	w, err := GenerateDomain(2000, 32, 4, 3, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Any streaming framework mechanism runs the reduction, not just
	// FutureRand.
	for _, p := range []Protocol{FutureRand, Erlingsson, Independent, Bun} {
		srv, est, err := streamDomain(w, 3, WithMechanism(p), WithEpsilon(1))
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if srv.Mechanism() != p || srv.Users() != w.N {
			t.Errorf("%s: server %s with %d users", p, srv.Mechanism(), srv.Users())
		}
		if len(est) != 4 || len(est[0]) != 32 {
			t.Fatal("estimate matrix shape wrong")
		}
		truth, worst := w.Truth(), 0.0
		for x := range est {
			worst = math.Max(worst, stats.MaxAbsError(est[x], truth[x]))
		}
		if worst <= 0 {
			t.Errorf("%s: zero max error suspicious", p)
		}
	}
	// Errors.
	if _, _, err := streamDomain(nil, 3); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := GenerateDomain(0, 32, 4, 3, 1.2, 7); err == nil {
		t.Error("invalid domain spec accepted")
	}
}
