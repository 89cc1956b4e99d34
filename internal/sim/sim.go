// Package sim runs complete protocol executions on synthetic workloads.
// It has one exact engine and the fast engines that stand in for it at
// scale:
//
//   - Exact runs a built-in mechanism as it ships: one ldp client per
//     user, built by the mechanism's client factory, feeding one ldp
//     server;
//   - the fast engines exploit Property III: the reports of all users
//     whose partial sum at a cell is zero are i.i.d. fair coins, so their
//     sum is sampled directly as 2·Binomial(m,½)−m (exact, via popcount),
//     while non-zero coordinates still go through the real randomizer.
//     The framework's engine and the Erlingsson baseline's share one
//     per-user loop (runFast) over protocol.Sharded, the accumulator the
//     servers run; they differ only in which partial sums a user
//     perturbs.
//
// Each fast engine is distributionally identical to Exact on its
// mechanism (TestExactFastEquivalence, TestErlingssonExactFastEquivalence
// and TestNaiveSplitExactFastEquivalence compare them); the fast engines
// make n = 10⁶ runs tractable. Baselines (Erlingsson et al., naive budget
// splitting, the central-model binary mechanism) and the consistency
// post-processing wrapper are exposed through the same System interface.
package sim

import (
	"math"

	"rtf/internal/central"
	"rtf/internal/consistency"
	"rtf/internal/dyadic"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/workload"
	"rtf/ldp"
)

// System is a complete protocol (client + server) runnable on a workload.
type System interface {
	// Name identifies the system in experiment tables.
	Name() string
	// Run executes the protocol and returns the estimate series â[1..d].
	Run(w *workload.Workload, g *rng.RNG) ([]float64, error)
}

// Exact runs a built-in mechanism through the shipped ldp client
// factory and server: every user gets its own client, seeded from the
// run's RNG, and feeds it the full stream. It serves every built-in
// mechanism, central-binary included.
type Exact struct {
	Protocol ldp.Protocol
	Eps      float64
}

// Name implements System.
func (e Exact) Name() string { return string(e.Protocol) }

// Run implements System.
func (e Exact) Run(w *workload.Workload, g *rng.RNG) ([]float64, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	opts := []ldp.Option{ldp.WithMechanism(e.Protocol), ldp.WithEpsilon(e.Eps),
		ldp.WithSparsity(max(w.K, 1)), ldp.WithSeed(g.Int64())}
	srv, err := ldp.NewServer(w.D, opts...)
	if err != nil {
		return nil, err
	}
	factory, err := ldp.NewClientFactory(w.D, opts...)
	if err != nil {
		return nil, err
	}
	for u, us := range w.Users {
		c, err := factory.NewClient(u, g.Int64())
		if err != nil {
			return nil, err
		}
		if err := srv.Register(c.Order()); err != nil {
			return nil, err
		}
		for _, v := range us.Values(w.D) {
			if rep, ok := c.Observe(v != 0); ok {
				if err := srv.Ingest(rep); err != nil {
					return nil, err
				}
			}
		}
	}
	return srv.Estimates(), nil
}

// ---------------------------------------------------------------------------

// Framework is the fast engine of the paper's protocol with a selectable
// randomizer.
type Framework struct {
	Kind protocol.RandomizerKind
	Eps  float64
}

// Name implements System.
func (f Framework) Name() string { return f.Kind.String() + "-fast" }

// Run implements System.
func (f Framework) Run(w *workload.Workload, g *rng.RNG) ([]float64, error) {
	acc, err := f.RunServer(w, g)
	if err != nil {
		return nil, err
	}
	return acc.EstimateSeries(), nil
}

// RunServer executes the protocol and returns the accumulator, exposing
// the per-interval state for range reads and post-processing
// (consistency extension).
func (f Framework) RunServer(w *workload.Workload, g *rng.RNG) (*protocol.Sharded, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	factories, err := f.Kind.Factories(w.D, max(w.K, 1), f.Eps)
	if err != nil {
		return nil, err
	}
	scale := protocol.EstimatorScale(w.D, factories[0].CGap())
	return runFast(w, factories, scale, g, func(dst []nzSum, us workload.UserStream, h int, _ *rng.RNG) ([]nzSum, bool) {
		return nonzeroPartialSums(dst, us, h), us.NumChanges() > 0
	}), nil
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
	acc, err := c.RunServer(w, g)
	if err != nil {
		return nil, err
	}
	_, perOrder, sums := acc.Fold()
	est := make([]float64, len(sums))
	for i, s := range sums {
		est[i] = acc.Scale() * float64(s)
	}
	// Var Ŝ(I_{h,j}) ≤ |U_h|·scale² (each report contributes scale·(±1)
	// with variance ≤ scale²); orders with no users carry no information.
	varByOrder := make([]float64, len(perOrder))
	for h, uh := range perOrder {
		if uh > 0 {
			varByOrder[h] = float64(uh) * acc.Scale() * acc.Scale()
		} else {
			varByOrder[h] = math.Inf(1)
		}
	}
	tree := dyadic.NewTree(w.D)
	smooth := consistency.Smooth(tree, est, varByOrder)
	return consistency.SeriesFromTree(tree, smooth), nil
}

// ---------------------------------------------------------------------------

// Erlingsson is the fast engine of the Section 6 baseline: keep one
// sampled change, perturb with the basic randomizer at ε/2, scale the
// estimator by k.
type Erlingsson struct {
	Eps float64
}

// Name implements System.
func (e Erlingsson) Name() string { return "erlingsson-fast" }

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
	acc := runFast(w, factories, protocol.ErlingssonScale(w.D, k, e.Eps), g, func(dst []nzSum, us workload.UserStream, h int, g *rng.RNG) ([]nzSum, bool) {
		keep := g.IntN(k) // keep change #keep (0-based) if it exists
		if keep >= us.NumChanges() {
			return dst, false
		}
		// The sparsified derivative has a single non-zero coordinate at
		// the kept change time; changes alternate 0→1, 1→0, ... from the
		// implicit st[0]=0, so even-indexed changes have sign +1.
		sign := int8(1)
		if keep%2 == 1 {
			sign = -1
		}
		return append(dst, nzSum{j: (us.ChangeTimes[keep]-1)>>uint(h) + 1, sign: sign}), true
	})
	return acc.EstimateSeries(), nil
}

// ---------------------------------------------------------------------------

// NaiveSplit is the fast engine of the Section 1 strawman: a fresh
// randomized response at every period with per-report budget ε/d.
type NaiveSplit struct {
	Eps float64
}

// Name implements System.
func (n NaiveSplit) Name() string { return "naive-split-fast" }

// Run implements System.
func (n NaiveSplit) Run(w *workload.Workload, g *rng.RNG) ([]float64, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	srv := protocol.NewNaiveSplitServer(w.D, n.Eps)
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
