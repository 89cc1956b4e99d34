package eval

import (
	"fmt"
	"io"
	"math"

	"rtf/internal/bitvec"
	"rtf/internal/core"
	"rtf/internal/dyadic"
	"rtf/internal/privacy"
	"rtf/internal/probmath"
	"rtf/internal/rng"
	"rtf/internal/sparse"
	"rtf/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E5",
		Title: "exact c_gap scaling across randomizers",
		Claim: "Theorem 4.4: c_gap·√k/ε ≈ const for FutureRand; Example 4.2 scales as ε/k; Bun (Thm A.8) loses √ln(k/ε)",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E5")
			header(w, e, cfg)
			ks := pickInts(cfg, []int{1, 4, 16, 64}, []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096})
			eps := 1.0
			tw := table(w)
			fmt.Fprintln(tw, "k\tc_fr\tc_fr·√k/ε\tc_ind\tc_ind·k/ε\tc_bun\tc_bun·√(k·lnk)/ε\tfr/bun")
			var xs, cfr []float64
			for _, k := range ks {
				fr, err := probmath.NewFutureRand(k, eps)
				if err != nil {
					return err
				}
				bun, err := probmath.NewBun(k, eps)
				if err != nil {
					return err
				}
				ind := probmath.CGapIndependent(k, eps)
				lnk := math.Log(math.Max(float64(k), 2))
				fmt.Fprintf(tw, "%d\t%.3g\t%.4f\t%.3g\t%.4f\t%.3g\t%.4f\t%.2f\n",
					k, fr.CGap, fr.CGap*math.Sqrt(float64(k))/eps,
					ind, ind*float64(k)/eps,
					bun.CGap, bun.CGap*math.Sqrt(float64(k)*lnk)/eps,
					fr.CGap/bun.CGap)
				xs = append(xs, float64(k))
				cfr = append(cfr, fr.CGap)
			}
			if err := tw.Flush(); err != nil {
				return err
			}
			if len(xs) >= 3 {
				fit := stats.LogLogFit(xs, cfr)
				fmt.Fprintf(w, "futurerand c_gap slope vs k: %+.3f (theory: −1/2; R²=%.3f)\n", fit.Slope, fit.R2)
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "E6",
		Title: "exact privacy verification",
		Claim: "Lemma 5.2 and Theorem 4.5: worst-case likelihood ratios stay within e^ε (computed exactly, no sampling)",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E6")
			header(w, e, cfg)
			eps := 1.0
			tw := table(w)
			fmt.Fprintln(tw, "check\tparams\trealized ε\tbudget ε\tok")
			ks := pickInts(cfg, []int{1, 4, 16}, []int{1, 2, 4, 8, 16, 64, 256, 1024})
			for _, k := range ks {
				p, err := probmath.NewFutureRand(k, eps)
				if err != nil {
					return err
				}
				r := privacy.RandomizerRatio(p)
				fmt.Fprintf(tw, "randomizer R̃\tk=%d\t%.4f\t%.2f\t%v\n", k, r.EpsRealized, r.EpsBudget, r.Satisfied())
			}
			type dk struct{ d, k int }
			cases := []dk{{4, 1}, {4, 2}}
			if !cfg.Quick {
				cases = []dk{{2, 1}, {4, 1}, {4, 2}, {8, 1}, {8, 2}, {8, 3}}
			}
			for _, c := range cases {
				r, err := privacy.ClientRatio(c.d, c.k, c.k, eps)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "client Aclt (exhaustive)\td=%d k=%d\t%.4f\t%.2f\t%v\n",
					c.d, c.k, r.EpsRealized, r.EpsBudget, r.Satisfied())
			}
			return tw.Flush()
		},
	})

	register(Experiment{
		ID:    "E12",
		Title: "online pre-computation ≡ offline composed randomizer",
		Claim: "Section 5.3: the online FutureRand output distribution is exactly R̃'s (TV = 0 analytically; sampled TV → 0)",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E12")
			header(w, e, cfg)
			tw := table(w)
			fmt.Fprintln(tw, "k\texact TV (analytic)\tsampled TV (online vs offline)")
			ks := pickInts(cfg, []int{2, 8}, []int{2, 4, 8, 16})
			samples := pick(cfg, 20000, 200000)
			g := rng.NewFromSeed(cfg.Seed)
			for _, k := range ks {
				p, err := probmath.NewFutureRand(k, 1.0)
				if err != nil {
					return err
				}
				exact := privacy.OnlineOfflineTV(p)

				// Sampled check: distance histograms of online outputs
				// (full-support input) vs offline R̃ samples.
				f, err := core.NewFutureRandFactory(k, k, 1.0)
				if err != nil {
					return err
				}
				onHist := make([]float64, k+1)
				offHist := make([]float64, k+1)
				input := bitvec.Ones(k)
				for i := 0; i < samples; i++ {
					inst := f.NewInstance(g)
					dist := 0
					for j := 0; j < k; j++ {
						if inst.Perturb(1) != input.At(j) {
							dist++
						}
					}
					onHist[dist]++
					offHist[f.Composed().Sample(g, input).Hamming(input)]++
				}
				tv := stats.TVDistance(stats.Normalize(onHist), stats.Normalize(offHist))
				fmt.Fprintf(tw, "%d\t%.2e\t%.4f\n", k, exact, tv)
			}
			return tw.Flush()
		},
	})

	register(Experiment{
		ID:    "E17",
		Title: "annulus geometry identities",
		Claim: "Eq 15/21/36: UB ∈ [kp, k/2], g(UB) = 2^{-k}, g(kp) ≥ 2^{-k} ≥ g(k/2), P*out ≤ 2^{-k}",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E17")
			header(w, e, cfg)
			ks := pickInts(cfg, []int{16, 64}, []int{16, 64, 256, 1024, 4096})
			tw := table(w)
			fmt.Fprintln(tw, "k\tkp\tLB\tUB\tk/2\tln g(UB)+k·ln2\tln P*out+k·ln2 ≤ 0\tann mass")
			for _, k := range ks {
				p, err := probmath.NewFutureRand(k, 1.0)
				if err != nil {
					return err
				}
				kp := float64(k) * p.P
				gUB := p.UBReal*math.Log(p.P) + (float64(k)-p.UBReal)*math.Log1p(-p.P) + float64(k)*math.Ln2
				pOutSlack := p.LogPOut + float64(k)*math.Ln2
				fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\t%d\t%+.2e\t%+.3f\t%.4f\n",
					k, kp, p.LBReal, p.UBReal, k/2, gUB, pOutSlack, p.InMass)
				if p.UBReal < kp-1e-9 || p.UBReal > float64(k)/2+1e-9 {
					return fmt.Errorf("E17: UB outside [kp, k/2] at k=%d", k)
				}
				if pOutSlack > 1e-9 {
					return fmt.Errorf("E17: P*out exceeds 2^-k at k=%d", k)
				}
			}
			return tw.Flush()
		},
	})

	register(Experiment{
		ID:    "E18",
		Title: "ablation: the annulus resampling step",
		Claim: "design choice (Alg 3, lines 5–6): without resampling, privacy degrades to ε·√k/5 while the annulus costs only a constant in c_gap",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E18")
			header(w, e, cfg)
			ks := pickInts(cfg, []int{4, 16, 64}, []int{4, 16, 64, 256, 1024, 4096})
			eps := 1.0
			tw := table(w)
			fmt.Fprintln(tw, "k\trealized ε (with annulus)\trealized ε (without)\tprivacy blowup\tc_gap (with)\tc_gap (without)\tutility cost")
			for _, k := range ks {
				p, err := probmath.NewFutureRand(k, eps)
				if err != nil {
					return err
				}
				// Without the resampling step, R̃ degenerates to k
				// independent flips at budget ε̃ each: the worst likelihood
				// ratio is g(0)/g(k) = e^{ε̃·k} and c_gap = 1−2p.
				noAnnEps := p.EpsTilde * float64(k)
				noAnnGap := 1 - 2*p.P
				fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.1fx\t%.4g\t%.4g\t%.2fx\n",
					k, p.EpsActual, noAnnEps, noAnnEps/p.EpsActual,
					p.CGap, noAnnGap, noAnnGap/p.CGap)
				if noAnnEps <= eps && k > 25 {
					return fmt.Errorf("E18: expected privacy violation without annulus at k=%d", k)
				}
			}
			if err := tw.Flush(); err != nil {
				return err
			}
			fmt.Fprintln(w, "reading: resampling buys a √k/5-factor privacy repair for a ~1.2x c_gap cost —")
			fmt.Fprintln(w, "the core design trade of Section 5.2.")
			return nil
		},
	})

	register(Experiment{
		ID:    "E7",
		Title: "dyadic decomposition (Figure 1 and Fact 3.8)",
		Claim: "Figure 1's worked example regenerated; |C(t)| = popcount(t) ≤ ⌈log₂ t⌉+1 for all t",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E7")
			header(w, e, cfg)
			// Left side of Figure 1: all dyadic intervals over [4].
			fmt.Fprintln(w, "dyadic intervals over [d=4]:")
			for _, iv := range dyadic.All(4) {
				fmt.Fprintf(w, "  %v\n", iv)
			}
			// Decomposition C(3) = {I(1,1), I(0,3)}.
			fmt.Fprintf(w, "C(3) = %v\n", dyadic.Decompose(3, 4))
			// Right side: partial sums of st = (0,1,1,0), X = (0,1,0,−1).
			st := []uint8{0, 1, 1, 0}
			fmt.Fprintf(w, "st = %v, X = %v\n", st, sparse.Derivative(st))
			for _, iv := range dyadic.All(4) {
				fmt.Fprintf(w, "  S(%v) = %+d\n", iv, sparse.PartialSum(st, iv))
			}
			// Fact 3.8 at scale.
			dMax := pick(cfg, 1<<12, 1<<20)
			worst := 0
			for t := 1; t <= dMax; t++ {
				c := len(dyadic.Decompose(t, dMax))
				if c > worst {
					worst = c
				}
				limit := int(math.Ceil(math.Log2(float64(t)))) + 1
				if c > limit {
					return fmt.Errorf("E7: |C(%d)| = %d exceeds ⌈log t⌉+1 = %d", t, c, limit)
				}
			}
			fmt.Fprintf(w, "checked all t ≤ %d: max |C(t)| = %d (= log₂ d)\n", dMax, worst)
			return nil
		},
	})
}
