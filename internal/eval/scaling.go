package eval

import (
	"fmt"
	"io"
	"math"

	"rtf/internal/dyadic"
	"rtf/internal/probmath"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/sim"
	"rtf/internal/stats"
	"rtf/internal/workload"
)

// runClipped executes the exact engine with clipping clients whose
// sparsity budget kProto may be below the workload's true maximum. It
// returns the estimate series and the clipping bias: the ℓ∞ distance
// between the true counts and the counts of the clipped effective
// streams (the systematic error floor clipping introduces).
func runClipped(wl *workload.Workload, kProto int, eps float64, g *rng.RNG) ([]float64, float64, error) {
	factories, err := protocol.FutureRandFactories(wl.D, kProto, eps)
	if err != nil {
		return nil, 0, err
	}
	srv := protocol.NewServer(wl.D, protocol.EstimatorScale(wl.D, factories[0].CGap()))
	clippedTruth := make([]int, wl.D)
	for u, us := range wl.Users {
		c := protocol.NewClippedClient(u, wl.D, kProto, factories, g)
		srv.Register(c.Order())
		vals := us.Values(wl.D)
		// Recompute the clipped effective stream for the bias metric.
		eff := uint8(0)
		changes := 0
		for t := 1; t <= wl.D; t++ {
			v := vals[t-1]
			if v != eff {
				if changes < kProto {
					changes++
					eff = v
				}
			}
			clippedTruth[t-1] += int(eff)
			if rep, ok := c.Observe(v != 0); ok {
				srv.Ingest(rep)
			}
		}
	}
	truth := wl.Truth()
	bias := 0.0
	for i := range truth {
		if d := math.Abs(float64(truth[i] - clippedTruth[i])); d > bias {
			bias = d
		}
	}
	return srv.EstimateSeries(), bias, nil
}

// scalingSystems are the head-to-head protocols for E1–E4.
func scalingSystems(eps float64) []sim.System {
	return []sim.System{
		sim.Framework{Kind: sim.FutureRand, Eps: eps, Fast: true},
		sim.Framework{Kind: sim.Independent, Eps: eps, Fast: true},
		sim.Framework{Kind: sim.Bun, Eps: eps, Fast: true},
		sim.Erlingsson{Eps: eps, Fast: true},
	}
}

// sweep runs all systems over a parameter sweep and prints a table plus
// log-log slopes of mean ℓ∞ error against the swept variable.
func sweep(w io.Writer, cfg Config, varName string, xs []float64,
	gen func(x float64) workload.Generator, mkSystems func(x float64) []sim.System) error {

	g := rng.NewFromSeed(cfg.Seed)
	trials := pick(cfg, 2, 5)
	names := []string{}
	for _, s := range mkSystems(xs[0]) {
		names = append(names, s.Name())
	}
	series := make(map[string][]float64)

	tw := table(w)
	fmt.Fprintf(tw, "%s", varName)
	for _, n := range names {
		fmt.Fprintf(tw, "\t%s", n)
	}
	fmt.Fprintln(tw)
	for _, x := range xs {
		fmt.Fprintf(tw, "%v", x)
		for _, sys := range mkSystems(x) {
			te, err := runTrials(sys, gen(x), trials, g.Split())
			if err != nil {
				return fmt.Errorf("%s=%v %s: %w", varName, x, sys.Name(), err)
			}
			fmt.Fprintf(tw, "\t%s", meanSE(te.MaxErr))
			series[sys.Name()] = append(series[sys.Name()], stats.Mean(te.MaxErr))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(xs) >= 3 {
		fmt.Fprintf(w, "log-log slope of max error vs %s:\n", varName)
		for _, n := range names {
			fit := stats.LogLogFit(xs, series[n])
			fmt.Fprintf(w, "  %-18s slope=%+.3f  (R²=%.3f)\n", n, fit.Slope, fit.R2)
		}
	}
	return nil
}

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "ℓ∞ error vs k (number of changes)",
		Claim: "Theorem 4.1 vs Section 6: FutureRand error ∝ √k; Erlingsson and Example 4.2 ∝ k; crossover location",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E1")
			header(w, e, cfg)
			n := pick(cfg, 2000, 50000)
			d := pick(cfg, 64, 1024)
			ks := pickInts(cfg, []int{1, 4, 16}, []int{1, 2, 4, 8, 16, 32, 64})
			xs := make([]float64, len(ks))
			for i, k := range ks {
				xs[i] = float64(k)
			}
			return sweep(w, cfg, "k", xs,
				func(x float64) workload.Generator {
					return workload.MaxChangesGen{N: n, D: d, K: int(x)}
				},
				func(float64) []sim.System { return scalingSystems(1.0) })
		},
	})

	register(Experiment{
		ID:    "E2",
		Title: "ℓ∞ error vs d (time horizon)",
		Claim: "Theorem 4.1: error grows polylogarithmically in d (≈ (log d)^{3/2})",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E2")
			header(w, e, cfg)
			n := pick(cfg, 2000, 50000)
			k := pick(cfg, 2, 8)
			ds := pickInts(cfg, []int{16, 64, 256}, []int{16, 64, 256, 1024, 4096})
			xs := make([]float64, len(ds))
			for i, d := range ds {
				xs[i] = float64(d)
			}
			if err := sweep(w, cfg, "d", xs,
				func(x float64) workload.Generator {
					return workload.MaxChangesGen{N: n, D: int(x), K: k}
				},
				func(float64) []sim.System { return scalingSystems(1.0) }); err != nil {
				return err
			}
			fmt.Fprintln(w, "note: polylog growth appears as a small positive slope vs d;")
			fmt.Fprintln(w, "      the naive ε/d baseline (E14) has slope ≈ 1 by contrast.")
			return nil
		},
	})

	register(Experiment{
		ID:    "E3",
		Title: "ℓ∞ error vs n (number of users)",
		Claim: "Theorem 4.1: error ∝ √n for all local protocols",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E3")
			header(w, e, cfg)
			d := pick(cfg, 64, 512)
			k := pick(cfg, 2, 8)
			ns := pickInts(cfg, []int{1000, 4000, 16000}, []int{2000, 8000, 32000, 128000, 512000})
			xs := make([]float64, len(ns))
			for i, n := range ns {
				xs[i] = float64(n)
			}
			return sweep(w, cfg, "n", xs,
				func(x float64) workload.Generator {
					return workload.MaxChangesGen{N: int(x), D: d, K: k}
				},
				func(float64) []sim.System { return scalingSystems(1.0) })
		},
	})

	register(Experiment{
		ID:    "E4",
		Title: "ℓ∞ error vs ε (privacy budget)",
		Claim: "Theorem 4.1: error ∝ 1/ε",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E4")
			header(w, e, cfg)
			n := pick(cfg, 2000, 50000)
			d := pick(cfg, 64, 512)
			k := pick(cfg, 2, 8)
			epss := pickFloats(cfg, []float64{0.25, 0.5, 1.0}, []float64{0.125, 0.25, 0.5, 0.75, 1.0})
			return sweep(w, cfg, "eps", epss,
				func(float64) workload.Generator {
					return workload.MaxChangesGen{N: n, D: d, K: k}
				},
				func(x float64) []sim.System { return scalingSystems(x) })
		},
	})

	register(Experiment{
		ID:    "E13",
		Title: "FutureRand vs Bun et al. composition, end to end",
		Claim: "Appendix A.2 / Theorem A.8: the Bun composition loses a √ln(k/ε) factor inside the same framework",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E13")
			header(w, e, cfg)
			n := pick(cfg, 4000, 50000)
			d := pick(cfg, 64, 512)
			ks := pickInts(cfg, []int{4, 16}, []int{4, 16, 64, 256})
			trials := pick(cfg, 2, 5)
			g := rng.NewFromSeed(cfg.Seed)
			tw := table(w)
			fmt.Fprintln(tw, "k\tfuturerand\tbun\tratio bun/fr")
			for _, k := range ks {
				gen := workload.MaxChangesGen{N: n, D: d, K: k}
				fr, err := runTrials(sim.Framework{Kind: sim.FutureRand, Eps: 1, Fast: true}, gen, trials, g.Split())
				if err != nil {
					return err
				}
				bn, err := runTrials(sim.Framework{Kind: sim.Bun, Eps: 1, Fast: true}, gen, trials, g.Split())
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%d\t%s\t%s\t%.2f\n", k, meanSE(fr.MaxErr), meanSE(bn.MaxErr),
					stats.Mean(bn.MaxErr)/stats.Mean(fr.MaxErr))
			}
			return tw.Flush()
		},
	})

	register(Experiment{
		ID:    "E14",
		Title: "naive ε/d budget splitting vs the framework, across d",
		Claim: "Section 1: repeated one-shot protocols decay linearly in d; the framework decays polylogarithmically — crossover location",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E14")
			header(w, e, cfg)
			n := pick(cfg, 2000, 20000)
			k := pick(cfg, 2, 4)
			ds := pickInts(cfg, []int{16, 128, 1024}, []int{16, 64, 256, 1024, 4096})
			trials := pick(cfg, 2, 5)
			g := rng.NewFromSeed(cfg.Seed)
			tw := table(w)
			fmt.Fprintln(tw, "d\tnaive-split\tfuturerand\tratio naive/fr")
			var xs, naive []float64
			for _, d := range ds {
				gen := workload.MaxChangesGen{N: n, D: d, K: k}
				nv, err := runTrials(sim.NaiveSplit{Eps: 1, Fast: true}, gen, trials, g.Split())
				if err != nil {
					return err
				}
				fr, err := runTrials(sim.Framework{Kind: sim.FutureRand, Eps: 1, Fast: true}, gen, trials, g.Split())
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%d\t%s\t%s\t%.2f\n", d, meanSE(nv.MaxErr), meanSE(fr.MaxErr),
					stats.Mean(nv.MaxErr)/stats.Mean(fr.MaxErr))
				xs = append(xs, float64(d))
				naive = append(naive, stats.Mean(nv.MaxErr))
			}
			if err := tw.Flush(); err != nil {
				return err
			}
			if len(xs) >= 3 {
				fit := stats.LogLogFit(xs, naive)
				fmt.Fprintf(w, "naive-split slope vs d: %+.3f (theory: ≈ +1; R²=%.3f)\n", fit.Slope, fit.R2)
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "E9",
		Title: "central-model binary mechanism vs local FutureRand",
		Claim: "Section 6: central error is independent of n; local error grows as √n",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E9")
			header(w, e, cfg)
			d := pick(cfg, 64, 512)
			k := pick(cfg, 2, 8)
			ns := pickInts(cfg, []int{1000, 16000}, []int{2000, 16000, 128000})
			trials := pick(cfg, 3, 8)
			g := rng.NewFromSeed(cfg.Seed)
			tw := table(w)
			fmt.Fprintln(tw, "n\tcentral-binary\tfuturerand (local)\tlocal/central")
			for _, n := range ns {
				gen := workload.MaxChangesGen{N: n, D: d, K: k}
				cen, err := runTrials(sim.Central{Eps: 1}, gen, trials, g.Split())
				if err != nil {
					return err
				}
				loc, err := runTrials(sim.Framework{Kind: sim.FutureRand, Eps: 1, Fast: true}, gen, trials, g.Split())
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%d\t%s\t%s\t%.1f\n", n, meanSE(cen.MaxErr), meanSE(loc.MaxErr),
					stats.Mean(loc.MaxErr)/stats.Mean(cen.MaxErr))
			}
			return tw.Flush()
		},
	})

	register(Experiment{
		ID:    "E11",
		Title: "measured max error vs the Hoeffding bound (Eq 13)",
		Claim: "Lemma 4.6: the β-failure bound holds empirically, with measured slack",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E11")
			header(w, e, cfg)
			d := pick(cfg, 64, 256)
			trials := pick(cfg, 20, 100)
			beta := 0.05
			g := rng.NewFromSeed(cfg.Seed)
			tw := table(w)
			fmt.Fprintln(tw, "n\tk\tbound(β=.05)\tmean maxerr\tp99 maxerr\tviolations\tslack=bound/mean")
			type pt struct{ n, k int }
			pts := []pt{{2000, 2}, {8000, 4}}
			if !cfg.Quick {
				pts = []pt{{2000, 2}, {8000, 4}, {32000, 8}, {128000, 16}}
			}
			for _, p := range pts {
				bound, err := sim.TheoreticalBound(p.n, d, p.k, 1.0, beta)
				if err != nil {
					return err
				}
				gen := workload.MaxChangesGen{N: p.n, D: d, K: p.k}
				te, err := runTrials(sim.Framework{Kind: sim.FutureRand, Eps: 1, Fast: true}, gen, trials, g.Split())
				if err != nil {
					return err
				}
				viol := 0
				for _, m := range te.MaxErr {
					if m > bound {
						viol++
					}
				}
				s := stats.Summarize(te.MaxErr)
				fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.0f\t%.0f\t%d/%d\t%.1f\n",
					p.n, p.k, bound, s.Mean, s.P99, viol, trials, bound/s.Mean)
			}
			return tw.Flush()
		},
	})

	register(Experiment{
		ID:    "E20",
		Title: "mis-specified sparsity bound k with change clipping",
		Claim: "deployment guidance: clipping bias (≤ true-truth gap) trades against √k noise growth; the error-optimal k sits at or below the true maximum, depending on n",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E20")
			header(w, e, cfg)
			n := pick(cfg, 1000, 100000)
			d := pick(cfg, 64, 128)
			kTrue := pick(cfg, 8, 16)
			trials := pick(cfg, 2, 2)
			g := rng.NewFromSeed(cfg.Seed)
			kProtos := pickInts(cfg, []int{2, 8, 32}, []int{2, 4, 8, 16, 32, 64})
			tw := table(w)
			fmt.Fprintln(tw, "protocol k\tclip bias (ℓ∞)\tmax error\tRMSE")
			for _, kp := range kProtos {
				var maxErrs, rmses, biases []float64
				for trial := 0; trial < trials; trial++ {
					wl, err := (workload.MaxChangesGen{N: n, D: d, K: kTrue}).Generate(g.Split())
					if err != nil {
						return err
					}
					est, clipBias, err := runClipped(wl, kp, 1.0, g.Split())
					if err != nil {
						return err
					}
					truth := wl.Truth()
					maxErrs = append(maxErrs, stats.MaxAbsError(est, truth))
					rmses = append(rmses, stats.RMSE(est, truth))
					biases = append(biases, clipBias)
				}
				fmt.Fprintf(tw, "%d\t%.0f\t%s\t%s\n", kp, stats.Mean(biases), meanSE(maxErrs), meanSE(rmses))
			}
			if err := tw.Flush(); err != nil {
				return err
			}
			fmt.Fprintf(tw, "true max changes: %d\n", kTrue)
			return tw.Flush()
		},
	})

	register(Experiment{
		ID:    "E19",
		Title: "estimator variance: predicted vs measured",
		Claim: "Lemma 4.6's variance accounting: σ(â[t]) ≈ scale·√(n·|C(t)|/(1+log d)) with scale = (1+log d)/c_gap",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E19")
			header(w, e, cfg)
			n := pick(cfg, 2000, 10000)
			d := pick(cfg, 64, 256)
			k := pick(cfg, 2, 4)
			trials := pick(cfg, 150, 400)
			g := rng.NewFromSeed(cfg.Seed)
			gen := workload.UniformGen{N: n, D: d, K: k}
			wl, err := gen.Generate(g.Split())
			if err != nil {
				return err
			}
			sys := sim.Framework{Kind: sim.FutureRand, Eps: 1, Fast: true}
			series := make([][]float64, trials)
			for i := range series {
				est, err := sys.Run(wl, g.Split())
				if err != nil {
					return err
				}
				series[i] = est
			}
			p, err := probmath.NewFutureRand(k, 1.0)
			if err != nil {
				return err
			}
			scale := float64(1+dyadic.Log2(d)) / p.CGap
			tw := table(w)
			fmt.Fprintln(tw, "t\t|C(t)|\tpredicted σ\tmeasured σ\tratio")
			for _, tt := range []int{1, d / 4, d/2 - 1, d} {
				c := len(dyadic.Decompose(tt, d))
				pred := scale * math.Sqrt(float64(n)*float64(c)/float64(1+dyadic.Log2(d)))
				var sum, sq float64
				for i := range series {
					v := series[i][tt-1]
					sum += v
					sq += v * v
				}
				mean := sum / float64(trials)
				meas := math.Sqrt(sq/float64(trials) - mean*mean)
				fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.0f\t%.2f\n", tt, c, pred, meas, meas/pred)
			}
			return tw.Flush()
		},
	})

	register(Experiment{
		ID:    "E8",
		Title: "unbiasedness of the server estimator",
		Claim: "Observation 4.3 / Eq 12: E[â[t]] = a[t]; empirical bias shrinks as 1/√trials",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E8")
			header(w, e, cfg)
			n := pick(cfg, 500, 2000)
			d := pick(cfg, 16, 64)
			k := pick(cfg, 2, 4)
			trials := pick(cfg, 200, 1000)
			g := rng.NewFromSeed(cfg.Seed)
			gen := workload.UniformGen{N: n, D: d, K: k}
			wl, err := gen.Generate(g.Split())
			if err != nil {
				return err
			}
			truth := wl.Truth()
			checkTimes := []int{1, d / 3, d / 2, d}
			sums := make([]float64, d)
			sqs := make([]float64, d)
			sys := sim.Framework{Kind: sim.FutureRand, Eps: 1, Fast: true}
			for i := 0; i < trials; i++ {
				est, err := sys.Run(wl, g.Split())
				if err != nil {
					return err
				}
				for j, v := range est {
					sums[j] += v
					sqs[j] += v * v
				}
			}
			tw := table(w)
			fmt.Fprintln(tw, "t\ttruth\tmean est\tbias\tstderr\t|bias|/stderr")
			for _, tt := range checkTimes {
				mean := sums[tt-1] / float64(trials)
				sd := math.Sqrt(sqs[tt-1]/float64(trials) - mean*mean)
				se := sd / math.Sqrt(float64(trials))
				bias := mean - float64(truth[tt-1])
				fmt.Fprintf(tw, "%d\t%d\t%.1f\t%+.1f\t%.1f\t%.2f\n",
					tt, truth[tt-1], mean, bias, se, math.Abs(bias)/se)
			}
			return tw.Flush()
		},
	})
}
