// Package sim runs complete protocol executions on synthetic workloads.
// It provides two engines for the paper's framework:
//
//   - the exact engine instantiates every client object and feeds it the
//     full stream, exercising the real protocol code path end to end;
//   - the fast engine exploits Property III: the reports of all users
//     whose partial sum at a cell is zero are i.i.d. fair coins, so their
//     sum is sampled directly as 2·Binomial(m,½)−m (exact, via popcount),
//     while non-zero coordinates still go through the real randomizer.
//
// The two engines are distributionally identical (verified by tests and
// experiment E8/E12 cross-checks); the fast engine makes n = 10⁶ runs
// tractable. Baselines (Erlingsson et al., naive budget splitting, the
// central-model binary mechanism) and the consistency post-processing
// wrapper are exposed through the same System interface.
package sim

import (
	"fmt"
	"math"

	"rtf/internal/central"
	"rtf/internal/consistency"
	"rtf/internal/core"
	"rtf/internal/dyadic"
	"rtf/internal/probmath"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/workload"
)

// System is a complete protocol (client + server) runnable on a workload.
type System interface {
	// Name identifies the system in experiment tables.
	Name() string
	// Run executes the protocol and returns the estimate series â[1..d].
	Run(w *workload.Workload, g *rng.RNG) ([]float64, error)
}

// RandomizerKind selects the client-side randomizer for the paper's
// framework (Algorithms 1–2).
type RandomizerKind int

// Randomizer kinds.
const (
	FutureRand  RandomizerKind = iota // the paper's randomizer (Section 5)
	Independent                       // Example 4.2: ε/k per coordinate
	Bun                               // Appendix A.2 composition, made online
)

// String returns the kind's experiment-table name.
func (k RandomizerKind) String() string {
	switch k {
	case FutureRand:
		return "futurerand"
	case Independent:
		return "independent"
	case Bun:
		return "bun"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Factories returns the per-order factory table for the kind — the
// client-side half shared by every user (including the one-time exact
// annulus computation). The ldp mechanism registry and the simulation
// engines both build clients from this table.
func (k RandomizerKind) Factories(d, kk int, eps float64) ([]core.Factory, error) {
	switch k {
	case FutureRand:
		return protocol.FutureRandFactories(d, kk, eps)
	case Independent:
		return protocol.IndependentFactories(d, kk, eps)
	case Bun:
		return protocol.BunFactories(d, kk, eps)
	default:
		return nil, fmt.Errorf("sim: unknown randomizer kind %d", int(k))
	}
}

// Scale returns the kind's estimator scale (Algorithm 2, line 5) without
// building the full factory table: (1+log₂ d)/c_gap with the kind's
// preservation gap at sparsity kk and budget eps.
func (k RandomizerKind) Scale(d, kk int, eps float64) (float64, error) {
	var cgap float64
	switch k {
	case FutureRand:
		p, err := probmath.NewFutureRand(kk, eps)
		if err != nil {
			return 0, err
		}
		cgap = p.CGap
	case Independent:
		// CGapIndependent assumes validated inputs; mirror the factory's
		// parameter checks.
		if kk < 1 {
			return 0, fmt.Errorf("sim: sparsity bound %d < 1", kk)
		}
		if !(eps > 0) {
			return 0, fmt.Errorf("sim: epsilon %v must be positive", eps)
		}
		cgap = probmath.CGapIndependent(kk, eps)
	case Bun:
		p, err := probmath.NewBun(kk, eps)
		if err != nil {
			return 0, err
		}
		cgap = p.CGap
	default:
		return 0, fmt.Errorf("sim: unknown randomizer kind %d", int(k))
	}
	return protocol.EstimatorScale(d, cgap), nil
}

// Framework is the paper's protocol with a selectable randomizer.
type Framework struct {
	Kind RandomizerKind
	Eps  float64
	Fast bool // use the aggregate engine for zero coordinates
	// Workers > 0 shards the fast engine across that many goroutines
	// (scheduling-independent results); Workers < 0 uses GOMAXPROCS.
	// Requires Fast.
	Workers int
}

// Name implements System.
func (f Framework) Name() string {
	if f.Fast {
		return f.Kind.String() + "-fast"
	}
	return f.Kind.String()
}

// Run implements System.
func (f Framework) Run(w *workload.Workload, g *rng.RNG) ([]float64, error) {
	srv, err := f.RunServer(w, g)
	if err != nil {
		return nil, err
	}
	return srv.EstimateSeries(), nil
}

// RunServer executes the protocol and returns the server, exposing the
// per-interval state for post-processing (consistency extension).
func (f Framework) RunServer(w *workload.Workload, g *rng.RNG) (*protocol.Server, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	k := max(w.K, 1)
	factories, err := f.Kind.Factories(w.D, k, f.Eps)
	if err != nil {
		return nil, err
	}
	srv := protocol.NewServer(w.D, protocol.EstimatorScale(w.D, factories[0].CGap()))
	switch {
	case f.Workers != 0 && !f.Fast:
		return nil, fmt.Errorf("sim: parallel execution requires the fast engine")
	case f.Workers != 0:
		workers := f.Workers
		if workers < 0 {
			workers = 0 // GOMAXPROCS
		}
		runFrameworkFastParallel(w, factories, srv, g, workers)
	case f.Fast:
		runFrameworkFast(w, factories, srv, g)
	default:
		runFrameworkExact(w, factories, srv, g)
	}
	return srv, nil
}

func runFrameworkExact(w *workload.Workload, factories []core.Factory, srv *protocol.Server, g *rng.RNG) {
	for u, us := range w.Users {
		c := protocol.NewClient(u, w.D, factories, g)
		srv.Register(c.Order())
		vals := us.Values(w.D)
		for t := 1; t <= w.D; t++ {
			if rep, ok := c.Observe(vals[t-1] != 0); ok {
				srv.Ingest(rep)
			}
		}
	}
}

// runFrameworkFast runs non-zero partial sums through the real randomizer
// per user, then injects the aggregate of the zero-coordinate fair coins
// per interval.
func runFrameworkFast(w *workload.Workload, factories []core.Factory, srv *protocol.Server, g *rng.RNG) {
	tree := srv.Tree()
	nonzero := make([]int, tree.Size())
	for u, us := range w.Users {
		h := protocol.SampleOrder(g, w.D)
		srv.Register(h)
		if us.NumChanges() == 0 {
			continue
		}
		inst := factories[h].NewInstance(g)
		for _, nz := range nonzeroPartialSums(us, h) {
			bit := inst.Perturb(nz.sign)
			srv.Ingest(protocol.Report{User: u, Order: h, J: nz.j, Bit: bit})
			nonzero[tree.FlatIndex(dyadic.Interval{Order: h, Index: nz.j})]++
		}
	}
	injectZeroCoins(srv, nonzero, g)
}

// nzSum is a non-zero partial sum at interval index j of the user's order.
type nzSum struct {
	j    int
	sign int8
}

// nonzeroPartialSums lists, in increasing j, the intervals of order h over
// which the user's value changes an odd number of times, with the sign of
// the resulting partial sum (+1 for a net 0→1 transition across the
// interval, −1 for 1→0).
func nonzeroPartialSums(us workload.UserStream, h int) []nzSum {
	var out []nzSum
	i := 0
	n := len(us.ChangeTimes)
	parityBefore := 0 // value entering the current interval
	for i < n {
		j := (us.ChangeTimes[i] - 1) >> uint(h) // 0-based interval index
		cnt := 0
		for i < n && (us.ChangeTimes[i]-1)>>uint(h) == j {
			cnt++
			i++
		}
		if cnt%2 == 1 {
			sign := int8(1)
			if parityBefore == 1 {
				sign = -1
			}
			out = append(out, nzSum{j: j + 1, sign: sign})
			parityBefore ^= 1
		}
	}
	return out
}

// injectZeroCoins adds, for every interval, the exact aggregate of the
// fair ±1 coins reported by users whose partial sum there was zero.
func injectZeroCoins(srv *protocol.Server, nonzero []int, g *rng.RNG) {
	tree := srv.Tree()
	for h := 0; h <= dyadic.Log2(srv.D()); h++ {
		uh := srv.UsersAtOrder(h)
		for j := 1; j <= dyadic.CountAtOrder(srv.D(), h); j++ {
			iv := dyadic.Interval{Order: h, Index: j}
			zeros := uh - nonzero[tree.FlatIndex(iv)]
			if zeros > 0 {
				srv.IngestSum(iv, int64(g.SignedBinomialHalfSum(zeros)))
			}
		}
	}
}

// ---------------------------------------------------------------------------

// Consistent wraps Framework with the offline consistency post-processing
// (internal/consistency): after all reports arrive, interval estimates
// are projected onto the parent-equals-sum-of-children subspace before
// the series is produced.
type Consistent struct {
	Framework
}

// Name implements System.
func (c Consistent) Name() string { return c.Framework.Name() + "+consistent" }

// Run implements System.
func (c Consistent) Run(w *workload.Workload, g *rng.RNG) ([]float64, error) {
	srv, err := c.RunServer(w, g)
	if err != nil {
		return nil, err
	}
	tree := srv.Tree()
	est := make([]float64, tree.Size())
	for i, s := range srv.IntervalSums() {
		est[i] = srv.Scale() * float64(s)
	}
	// Var Ŝ(I_{h,j}) ≤ |U_h|·scale² (each report contributes scale·(±1)
	// with variance ≤ scale²); orders with no users carry no information.
	varByOrder := make([]float64, dyadic.NumOrders(w.D))
	for h := range varByOrder {
		if uh := srv.UsersAtOrder(h); uh > 0 {
			varByOrder[h] = float64(uh) * srv.Scale() * srv.Scale()
		} else {
			varByOrder[h] = math.Inf(1)
		}
	}
	smooth := consistency.Smooth(tree, est, varByOrder)
	return consistency.SeriesFromTree(tree, smooth), nil
}

// ---------------------------------------------------------------------------

// Erlingsson is the Section 6 baseline: keep one sampled change, perturb
// with the basic randomizer at ε/2, scale the estimator by k.
type Erlingsson struct {
	Eps  float64
	Fast bool
}

// Name implements System.
func (e Erlingsson) Name() string {
	if e.Fast {
		return "erlingsson-fast"
	}
	return "erlingsson"
}

// Run implements System.
func (e Erlingsson) Run(w *workload.Workload, g *rng.RNG) ([]float64, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	k := max(w.K, 1)
	factories, err := protocol.ErlingssonFactories(w.D, e.Eps)
	if err != nil {
		return nil, err
	}
	srv := protocol.NewServer(w.D, protocol.ErlingssonScale(w.D, k, e.Eps))
	if e.Fast {
		e.runFast(w, k, factories, srv, g)
	} else {
		e.runExact(w, k, factories, srv, g)
	}
	return srv.EstimateSeries(), nil
}

func (e Erlingsson) runExact(w *workload.Workload, k int, factories []core.Factory, srv *protocol.Server, g *rng.RNG) {
	for u, us := range w.Users {
		c := protocol.NewErlingssonClient(u, w.D, k, factories, g)
		srv.Register(c.Order())
		vals := us.Values(w.D)
		for t := 1; t <= w.D; t++ {
			if rep, ok := c.Observe(vals[t-1] != 0); ok {
				srv.Ingest(rep)
			}
		}
	}
}

func (e Erlingsson) runFast(w *workload.Workload, k int, factories []core.Factory, srv *protocol.Server, g *rng.RNG) {
	tree := srv.Tree()
	nonzero := make([]int, tree.Size())
	for u, us := range w.Users {
		h := protocol.SampleOrder(g, w.D)
		srv.Register(h)
		keep := g.IntN(k) // keep change #keep (0-based) if it exists
		if keep >= us.NumChanges() {
			continue
		}
		// The sparsified derivative has a single non-zero coordinate at
		// the kept change time; changes alternate 0→1, 1→0, ... from the
		// implicit st[0]=0, so even-indexed changes have sign +1.
		sign := int8(1)
		if keep%2 == 1 {
			sign = -1
		}
		inst := factories[h].NewInstance(g)
		j := (us.ChangeTimes[keep]-1)>>uint(h) + 1
		srv.Ingest(protocol.Report{User: u, Order: h, J: j, Bit: inst.Perturb(sign)})
		nonzero[tree.FlatIndex(dyadic.Interval{Order: h, Index: j})]++
	}
	injectZeroCoins(srv, nonzero, g)
}

// ---------------------------------------------------------------------------

// NaiveSplit is the Section 1 strawman: a fresh randomized response at
// every period with per-report budget ε/d.
type NaiveSplit struct {
	Eps  float64
	Fast bool
}

// Name implements System.
func (n NaiveSplit) Name() string {
	if n.Fast {
		return "naive-split-fast"
	}
	return "naive-split"
}

// Run implements System.
func (n NaiveSplit) Run(w *workload.Workload, g *rng.RNG) ([]float64, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	srv := protocol.NewNaiveSplitServer(w.D, n.Eps)
	if n.Fast {
		truth := w.Truth()
		keep := (1 + srv.CGap()) / 2
		for t := 1; t <= w.D; t++ {
			a := truth[t-1]
			// Users at value 1 report +1 w.p. keep; users at 0 report +1
			// w.p. 1−keep. Aggregate the ±1 sum from two binomials.
			plus := g.BinomialApprox(a, keep) + g.BinomialApprox(w.N-a, 1-keep)
			srv.IngestSum(t, int64(2*plus-w.N))
		}
		for i := 0; i < w.N; i++ {
			srv.Register()
		}
	} else {
		for u, us := range w.Users {
			c := protocol.NewNaiveSplitClient(u, w.D, n.Eps, g)
			srv.Register()
			vals := us.Values(w.D)
			for t := 1; t <= w.D; t++ {
				srv.Ingest(c.Observe(vals[t-1]))
			}
		}
	}
	return srv.EstimateSeries(), nil
}

// ---------------------------------------------------------------------------

// Central wraps the trusted-curator binary mechanism (internal/central).
type Central struct {
	Eps float64
}

// Name implements System.
func (c Central) Name() string { return "central-binary" }

// Run implements System.
func (c Central) Run(w *workload.Workload, g *rng.RNG) ([]float64, error) {
	m := central.BinaryMechanism{D: w.D, K: max(w.K, 1), Eps: c.Eps}
	return m.Run(w, g)
}

// ---------------------------------------------------------------------------

// TheoreticalBound returns the Lemma 4.6 / Theorem 4.1 high-probability
// ℓ∞ bound for the FutureRand protocol at the workload's parameters,
// union-bounded over all d periods at failure probability beta.
func TheoreticalBound(n, d, k int, eps, beta float64) (float64, error) {
	p, err := probmath.NewFutureRand(max(k, 1), eps)
	if err != nil {
		return 0, err
	}
	return probmath.HoeffdingErrorBound(n, d, p.CGap, beta/float64(d)), nil
}
