package sim

import (
	"math"
	"slices"
	"testing"

	"rtf/internal/probmath"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/stats"
	"rtf/internal/workload"
	"rtf/ldp"
)

func genUniform(t *testing.T, n, d, k int) *workload.Workload {
	t.Helper()
	w, err := workload.UniformGen{N: n, D: d, K: k}.Generate(rng.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNonzeroPartialSums(t *testing.T) {
	// White-box test of the fast engine's core: the non-zero partial sums
	// computed from change times must match the brute-force ones from the
	// materialized stream.
	g := rng.New(3, 4)
	for trial := 0; trial < 300; trial++ {
		d := 64
		c := g.IntN(9)
		times := g.KSubset(d, c)
		for i := range times {
			times[i]++
		}
		us := workload.UserStream{ChangeTimes: times}
		vals := us.Values(d)
		for h := 0; h <= 6; h++ {
			got := nonzeroPartialSums(nil, us, h)
			// Brute force over intervals of order h.
			gi := 0
			for j := 1; j <= d>>uint(h); j++ {
				start := (j-1)<<uint(h) + 1
				end := j << uint(h)
				var left uint8
				if start > 1 {
					left = vals[start-2]
				}
				sum := int8(vals[end-1]) - int8(left)
				if sum == 0 {
					continue
				}
				if gi >= len(got) || got[gi].j != j || got[gi].sign != sum {
					t.Fatalf("h=%d j=%d: want sum %d, fast engine gave %+v (times %v)", h, j, sum, got, times)
				}
				gi++
			}
			if gi != len(got) {
				t.Fatalf("h=%d: fast engine produced %d extra sums", h, len(got)-gi)
			}
		}
	}
}

func TestExactFastEquivalence(t *testing.T) {
	// The fast engine must agree in distribution with the shipped client
	// and server (Exact). Compare mean and standard deviation of â[d] over
	// many trials.
	w := genUniform(t, 300, 16, 3)
	truth := w.Truth()
	g := rng.New(5, 6)
	const trials = 250
	collect := func(sys System) []float64 {
		var out []float64
		for i := 0; i < trials; i++ {
			est, err := sys.Run(w, g.Split())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, est[w.D-1])
		}
		return out
	}
	ex := stats.Summarize(collect(Exact{Protocol: ldp.FutureRand, Eps: 1}))
	fa := stats.Summarize(collect(Framework{Kind: protocol.FutureRand, Eps: 1}))
	// Means agree within combined standard errors; stds within 20%.
	se := math.Hypot(ex.Std, fa.Std) / math.Sqrt(trials)
	if math.Abs(ex.Mean-fa.Mean) > 6*se {
		t.Errorf("means differ: exact %v, fast %v (se %v)", ex.Mean, fa.Mean, se)
	}
	if fa.Std < 0.7*ex.Std || fa.Std > 1.4*ex.Std {
		t.Errorf("stds differ: exact %v, fast %v", ex.Std, fa.Std)
	}
	// Both unbiased for the truth.
	for _, m := range []stats.Summary{ex, fa} {
		if math.Abs(m.Mean-float64(truth[w.D-1])) > 6*m.Std/math.Sqrt(trials) {
			t.Errorf("biased: mean %v, truth %d", m.Mean, truth[w.D-1])
		}
	}
}

func TestErlingssonExactFastEquivalence(t *testing.T) {
	w := genUniform(t, 300, 16, 3)
	g := rng.New(7, 8)
	const trials = 250
	collect := func(sys System) []float64 {
		var out []float64
		for i := 0; i < trials; i++ {
			est, err := sys.Run(w, g.Split())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, est[w.D-1])
		}
		return out
	}
	ex := stats.Summarize(collect(Exact{Protocol: ldp.Erlingsson, Eps: 1}))
	fa := stats.Summarize(collect(Erlingsson{Eps: 1}))
	se := math.Hypot(ex.Std, fa.Std) / math.Sqrt(trials)
	if math.Abs(ex.Mean-fa.Mean) > 6*se {
		t.Errorf("means differ: exact %v, fast %v (se %v)", ex.Mean, fa.Mean, se)
	}
	if fa.Std < 0.7*ex.Std || fa.Std > 1.4*ex.Std {
		t.Errorf("stds differ: exact %v, fast %v", ex.Std, fa.Std)
	}
	truth := w.Truth()
	for _, m := range []stats.Summary{ex, fa} {
		if math.Abs(m.Mean-float64(truth[w.D-1])) > 6*m.Std/math.Sqrt(trials) {
			t.Errorf("biased: mean %v, truth %d", m.Mean, truth[w.D-1])
		}
	}
}

func TestUnbiasednessAllSystems(t *testing.T) {
	// E8 in miniature: every local system's estimate is unbiased at every
	// checked time point.
	w := genUniform(t, 200, 8, 2)
	truth := w.Truth()
	g := rng.New(9, 10)
	systems := []System{
		Framework{Kind: protocol.FutureRand, Eps: 1},
		Framework{Kind: protocol.Independent, Eps: 1},
		Framework{Kind: protocol.Bun, Eps: 1},
		Erlingsson{Eps: 1},
		NaiveSplit{Eps: 1},
	}
	const trials = 400
	for _, sys := range systems {
		sums := make([]float64, w.D)
		var sq float64
		for i := 0; i < trials; i++ {
			est, err := sys.Run(w, g.Split())
			if err != nil {
				t.Fatalf("%s: %v", sys.Name(), err)
			}
			for j, e := range est {
				sums[j] += e
			}
			sq += est[3] * est[3]
		}
		mean := sums[3] / trials
		sd := math.Sqrt(sq/trials - mean*mean)
		se := sd / math.Sqrt(trials)
		if math.Abs(mean-float64(truth[3])) > 6*se {
			t.Errorf("%s: E[â[4]] = %v, truth %d (se %v)", sys.Name(), mean, truth[3], se)
		}
	}
}

func TestHoeffdingBoundHolds(t *testing.T) {
	// E11 in miniature: the Lemma 4.6 bound at β=0.05 must hold in ≥ 90%
	// of trials (it holds with probability ≥ 95%).
	w := genUniform(t, 400, 16, 2)
	truth := w.Truth()
	bound, err := probmath.TheoreticalBound(w.N, w.D, w.K, 1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(11, 12)
	const trials = 100
	fails := 0
	for i := 0; i < trials; i++ {
		est, err := Framework{Kind: protocol.FutureRand, Eps: 1}.Run(w, g.Split())
		if err != nil {
			t.Fatal(err)
		}
		if stats.MaxAbsError(est, truth) > bound {
			fails++
		}
	}
	if fails > 10 {
		t.Errorf("Hoeffding bound violated in %d/%d trials", fails, trials)
	}
}

func TestCentralBeatsLocal(t *testing.T) {
	// E9 in miniature: with moderate n, the central model is far more
	// accurate than any local protocol.
	w := genUniform(t, 2000, 16, 2)
	truth := w.Truth()
	g := rng.New(13, 14)
	var cen, loc []float64
	for i := 0; i < 30; i++ {
		c, err := Central{Eps: 1}.Run(w, g.Split())
		if err != nil {
			t.Fatal(err)
		}
		l, err := Framework{Kind: protocol.FutureRand, Eps: 1}.Run(w, g.Split())
		if err != nil {
			t.Fatal(err)
		}
		cen = append(cen, stats.MaxAbsError(c, truth))
		loc = append(loc, stats.MaxAbsError(l, truth))
	}
	if stats.Mean(cen) >= stats.Mean(loc)/3 {
		t.Errorf("central %v not clearly better than local %v", stats.Mean(cen), stats.Mean(loc))
	}
}

func TestConsistentImprovesErrors(t *testing.T) {
	// E10 in miniature: post-processing must reduce RMSE on average.
	w := genUniform(t, 1000, 32, 2)
	truth := w.Truth()
	g := rng.New(15, 16)
	var raw, smooth float64
	const trials = 40
	for i := 0; i < trials; i++ {
		gg := g.Split()
		r, err := Framework{Kind: protocol.FutureRand, Eps: 1}.Run(w, gg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Consistent{Framework{Kind: protocol.FutureRand, Eps: 1}}.Run(w, g.Split())
		if err != nil {
			t.Fatal(err)
		}
		raw += stats.RMSE(r, truth)
		smooth += stats.RMSE(s, truth)
	}
	if smooth >= raw {
		t.Errorf("consistency post-processing did not help: raw %v, smooth %v", raw/trials, smooth/trials)
	}
}

func TestNaiveSplitMuchWorseAtLargeD(t *testing.T) {
	// E14 in miniature: the ε/d baseline degrades linearly in d, while
	// the framework grows polylogarithmically. With the paper's constants
	// (ε̃ = ε/(5√k)) the crossover sits near d ≈ 512 for k=4; beyond it
	// the naive protocol loses decisively.
	g := rng.New(17, 18)
	w := genUniform(t, 500, 512, 4)
	truth := w.Truth()
	var naive, fr []float64
	for i := 0; i < 20; i++ {
		nEst, err := NaiveSplit{Eps: 1}.Run(w, g.Split())
		if err != nil {
			t.Fatal(err)
		}
		fEst, err := Framework{Kind: protocol.FutureRand, Eps: 1}.Run(w, g.Split())
		if err != nil {
			t.Fatal(err)
		}
		naive = append(naive, stats.MaxAbsError(nEst, truth))
		fr = append(fr, stats.MaxAbsError(fEst, truth))
	}
	if stats.Mean(naive) < 1.5*stats.Mean(fr) {
		t.Errorf("naive %v not clearly worse than futurerand %v at d=64", stats.Mean(naive), stats.Mean(fr))
	}
}

func TestNaiveSplitExactFastEquivalence(t *testing.T) {
	w := genUniform(t, 100, 8, 2)
	g := rng.New(19, 20)
	const trials = 200
	collect := func(sys System) []float64 {
		var out []float64
		for i := 0; i < trials; i++ {
			est, err := sys.Run(w, g.Split())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, est[3])
		}
		return out
	}
	ex := stats.Summarize(collect(Exact{Protocol: ldp.NaiveSplit, Eps: 1}))
	fa := stats.Summarize(collect(NaiveSplit{Eps: 1}))
	se := math.Hypot(ex.Std, fa.Std) / math.Sqrt(trials)
	if math.Abs(ex.Mean-fa.Mean) > 6*se {
		t.Errorf("means differ: exact %v, fast %v", ex.Mean, fa.Mean)
	}
	if fa.Std < 0.7*ex.Std || fa.Std > 1.4*ex.Std {
		t.Errorf("stds differ: exact %v, fast %v", ex.Std, fa.Std)
	}
}

func TestSystemNames(t *testing.T) {
	cases := map[string]System{
		"futurerand-fast":            Framework{Kind: protocol.FutureRand},
		"independent-fast":           Framework{Kind: protocol.Independent},
		"bun-fast":                   Framework{Kind: protocol.Bun},
		"futurerand-fast+consistent": Consistent{Framework{Kind: protocol.FutureRand}},
		"erlingsson-fast":            Erlingsson{},
		"naive-split-fast":           NaiveSplit{},
		"central-binary":             Central{},
	}
	for want, sys := range cases {
		if got := sys.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
	if protocol.RandomizerKind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestRunValidatesWorkloadAndParams(t *testing.T) {
	bad := &workload.Workload{N: 1, D: 6, K: 1, Users: []workload.UserStream{{}}}
	g := rng.New(21, 22)
	if _, err := (Framework{Kind: protocol.FutureRand, Eps: 1}).Run(bad, g); err == nil {
		t.Error("invalid workload accepted")
	}
	w := genUniform(t, 10, 8, 1)
	if _, err := (Framework{Kind: protocol.FutureRand, Eps: 5}).Run(w, g); err == nil {
		t.Error("eps=5 accepted")
	}
	if _, err := (Framework{Kind: protocol.RandomizerKind(99), Eps: 1}).Run(w, g); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := (Erlingsson{Eps: 1}).Run(bad, g); err == nil {
		t.Error("Erlingsson accepted invalid workload")
	}
	if _, err := (NaiveSplit{Eps: 1}).Run(bad, g); err == nil {
		t.Error("NaiveSplit accepted invalid workload")
	}
	if _, err := (Exact{Protocol: ldp.FutureRand, Eps: 1}).Run(bad, g); err == nil {
		t.Error("Exact accepted invalid workload")
	}
	if _, err := (Exact{Protocol: "bogus", Eps: 1}).Run(w, g); err == nil {
		t.Error("Exact accepted an unregistered protocol")
	}
}

func TestStaticWorkloadNoiseOnly(t *testing.T) {
	// K=0-style workload (StaticGen sets K=1 with no changes): estimates
	// are pure noise around zero.
	w, err := workload.StaticGen{N: 500, D: 16}.Generate(rng.New(23, 24))
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(25, 26)
	sum := 0.0
	const trials = 200
	var sq float64
	for i := 0; i < trials; i++ {
		est, err := Framework{Kind: protocol.FutureRand, Eps: 1}.Run(w, g.Split())
		if err != nil {
			t.Fatal(err)
		}
		sum += est[7]
		sq += est[7] * est[7]
	}
	mean := sum / trials
	sd := math.Sqrt(sq/trials - mean*mean)
	if math.Abs(mean) > 6*sd/math.Sqrt(trials) {
		t.Errorf("static workload estimate biased: %v (sd %v)", mean, sd)
	}
}

// TestFastEngineEmptyWorkload checks that an empty workload is valid
// and runs on both fast engines: every interval's sum is empty.
func TestFastEngineEmptyWorkload(t *testing.T) {
	w := &workload.Workload{N: 0, D: 64, K: 3}
	for _, sys := range []System{Framework{Kind: protocol.FutureRand, Eps: 1}, Erlingsson{Eps: 1}} {
		est, err := sys.Run(w, rng.New(77, 78))
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		if len(est) != w.D || slices.ContainsFunc(est, func(v float64) bool { return v != 0 }) {
			t.Fatalf("%s: empty workload gives %v, want %d zeros", sys.Name(), est, w.D)
		}
	}
}

func TestTheoreticalBoundErrors(t *testing.T) {
	if _, err := probmath.TheoreticalBound(10, 8, 1, 9, 0.05); err == nil {
		t.Error("eps=9 accepted")
	}
	b, err := probmath.TheoreticalBound(100, 8, 2, 1, 0.05)
	if err != nil || b <= 0 {
		t.Errorf("bound = %v, err %v", b, err)
	}
}
