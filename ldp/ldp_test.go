package ldp

import (
	"math"
	"testing"

	"rtf/workload"
)

func genW(t *testing.T, n, d, k int) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.Uniform{N: n, D: d, K: k}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestTrackAllProtocols(t *testing.T) {
	w := genW(t, 1000, 64, 3)
	for _, p := range []Protocol{FutureRand, Independent, Bun, Erlingsson, NaiveSplit, CentralBinary} {
		res, err := Track(w, Options{Protocol: p, Epsilon: 1, Seed: 3})
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if len(res.Estimates) != w.D || len(res.Truth) != w.D {
			t.Errorf("%s: series length wrong", p)
		}
		if res.MaxError <= 0 || res.RMSE <= 0 || res.MAE <= 0 {
			t.Errorf("%s: zero error metrics suspicious: %+v", p, res)
		}
		if res.MaxError < res.MAE {
			t.Errorf("%s: max < mean error", p)
		}
		if res.Protocol != p {
			t.Errorf("%s: result protocol %s", p, res.Protocol)
		}
	}
}

func TestTrackDefaultsToFutureRand(t *testing.T) {
	w := genW(t, 500, 32, 2)
	res, err := Track(w, Options{Epsilon: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != FutureRand {
		t.Errorf("default protocol %s", res.Protocol)
	}
	if res.HoeffdingBound <= 0 {
		t.Error("missing Hoeffding bound for FutureRand")
	}
	if res.MaxError > res.HoeffdingBound {
		t.Errorf("error %v exceeds bound %v (possible but 5%% unlikely)", res.MaxError, res.HoeffdingBound)
	}
}

func TestTrackDeterministic(t *testing.T) {
	w := genW(t, 500, 32, 2)
	a, err := Track(w, Options{Epsilon: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Track(w, Options{Epsilon: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatal("same seed produced different estimates")
		}
	}
}

func TestTrackConsistencyOption(t *testing.T) {
	w := genW(t, 2000, 64, 2)
	raw, err := Track(w, Options{Epsilon: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := Track(w, Options{Epsilon: 1, Seed: 9, Consistency: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same protocol noise, projected: not guaranteed better per run, but
	// both must be valid series; statistically smooth wins (tested in sim).
	if len(smooth.Estimates) != len(raw.Estimates) {
		t.Fatal("length mismatch")
	}
	for _, p := range []Protocol{Erlingsson, NaiveSplit, CentralBinary} {
		if _, err := Track(w, Options{Protocol: p, Epsilon: 1, Consistency: true}); err == nil {
			t.Errorf("%s with consistency accepted", p)
		}
	}
}

func TestTrackExactEngine(t *testing.T) {
	w := genW(t, 200, 16, 2)
	res, err := Track(w, Options{Epsilon: 1, Seed: 2, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 16 {
		t.Fatal("bad series")
	}
}

func TestTrackErrors(t *testing.T) {
	w := genW(t, 100, 16, 2)
	if _, err := Track(nil, Options{Epsilon: 1}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Track(w, Options{Epsilon: 0}); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Track(w, Options{Epsilon: 2}); err == nil {
		t.Error("eps=2 accepted")
	}
	if _, err := Track(w, Options{Epsilon: 1, Protocol: "bogus"}); err == nil {
		t.Error("unknown protocol accepted")
	}
	bad := &workload.Workload{N: 1, D: 6, K: 1, Users: []workload.Stream{{}}}
	if _, err := Track(bad, Options{Epsilon: 1}); err == nil {
		t.Error("invalid workload accepted")
	}
}

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

func TestTrackParallelWorkers(t *testing.T) {
	w := genW(t, 2000, 64, 2)
	a, err := Track(w, Options{Epsilon: 1, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Track(w, Options{Epsilon: 1, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatal("parallel run not reproducible")
		}
	}
	if _, err := Track(w, Options{Epsilon: 1, Workers: 2, Exact: true}); err == nil {
		t.Error("workers with exact engine accepted")
	}
}

func TestDomainTracking(t *testing.T) {
	w, err := GenerateDomain(2000, 32, 4, 3, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrackDomain(w, Options{Epsilon: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 4 || len(res.Estimates[0]) != 32 {
		t.Fatal("estimate matrix shape wrong")
	}
	if res.MaxError <= 0 {
		t.Error("zero max error suspicious")
	}
	// Any streaming framework mechanism runs the reduction now, not
	// just FutureRand.
	for _, p := range []Protocol{Erlingsson, Independent, Bun} {
		res, err := TrackDomain(w, Options{Epsilon: 1, Seed: 3, Protocol: p})
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if res.Protocol != p {
			t.Errorf("result protocol %s, want %s", res.Protocol, p)
		}
	}
	// Errors.
	if _, err := TrackDomain(nil, Options{Epsilon: 1}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := GenerateDomain(0, 32, 4, 3, 1.2, 7); err == nil {
		t.Error("invalid domain spec accepted")
	}
}
