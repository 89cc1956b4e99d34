package eval

import (
	"fmt"
	"io"
	"math"

	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/sim"
	"rtf/internal/stats"
	"rtf/internal/workload"
	"rtf/ldp"
)

func init() {
	register(Experiment{
		ID:    "E10",
		Title: "consistency post-processing ablation",
		Claim: "Section 6 offline gap: projecting onto the consistent tree reduces error and never biases",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E10")
			header(w, e, cfg)
			n := pick(cfg, 2000, 20000)
			d := pick(cfg, 64, 512)
			k := pick(cfg, 2, 8)
			trials := pick(cfg, 3, 10)
			g := rng.NewFromSeed(cfg.Seed)
			gens := []workload.Generator{
				workload.UniformGen{N: n, D: d, K: k},
				workload.BurstyGen{N: n, D: d, K: k, Start: d / 4, End: d / 2, InBurst: 0.8},
				workload.StepGen{N: n, D: d, T0: d / 2, Jitter: d / 16, Fraction: 0.5},
			}
			raw := sim.Framework{Kind: protocol.FutureRand, Eps: 1}
			smooth := sim.Consistent{Framework: raw}
			tw := table(w)
			fmt.Fprintln(tw, "workload\traw maxerr\t+consistent maxerr\traw RMSE\t+consistent RMSE\tRMSE gain")
			for _, gen := range gens {
				r, err := runTrials(raw, gen, trials, g.Split())
				if err != nil {
					return err
				}
				s, err := runTrials(smooth, gen, trials, g.Split())
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.2fx\n", gen.Name(),
					meanSE(r.MaxErr), meanSE(s.MaxErr), meanSE(r.RMSE), meanSE(s.RMSE),
					stats.Mean(r.RMSE)/stats.Mean(s.RMSE))
			}
			return tw.Flush()
		},
	})

	register(Experiment{
		ID:    "E15",
		Title: "robustness to report loss (transport failure injection)",
		Claim: "system property: estimates degrade gracefully under random report loss; rescaling by 1/(1−p) restores unbiasedness",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E15")
			header(w, e, cfg)
			n := pick(cfg, 1000, 10000)
			d := pick(cfg, 32, 256)
			k := pick(cfg, 2, 4)
			trials := pick(cfg, 2, 5)
			g := rng.NewFromSeed(cfg.Seed)
			drops := []float64{0, 0.05, 0.1, 0.2}
			tw := table(w)
			fmt.Fprintln(tw, "drop prob\traw maxerr\trescaled maxerr\tdelivered")
			for _, p := range drops {
				var rawErr, resErr []float64
				var delivered, total int
				for trial := 0; trial < trials; trial++ {
					wl, err := (workload.MaxChangesGen{N: n, D: d, K: k}).Generate(g.Split())
					if err != nil {
						return err
					}
					raw, rescaled, del, tot, err := runLossy(wl, 1.0, p, g.Split())
					if err != nil {
						return err
					}
					truth := wl.Truth()
					rawErr = append(rawErr, stats.MaxAbsError(raw, truth))
					resErr = append(resErr, stats.MaxAbsError(rescaled, truth))
					delivered, total = del, tot
				}
				fmt.Fprintf(tw, "%.2f\t%s\t%s\t%d/%d\n", p, meanSE(rawErr), meanSE(resErr), delivered, total)
			}
			return tw.Flush()
		},
	})

	register(Experiment{
		ID:    "E16",
		Title: "richer domains: per-item frequency tracking over [m]",
		Claim: "Section 1 adaptation: the sampling reduction is unbiased with per-item error ≈ √m × the Boolean error",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E16")
			header(w, e, cfg)
			n := pick(cfg, 4000, 20000)
			d := pick(cfg, 32, 128)
			k := pick(cfg, 2, 4)
			trials := pick(cfg, 2, 4)
			ms := pickInts(cfg, []int{4}, []int{4, 16, 64})
			g := rng.NewFromSeed(cfg.Seed)
			tw := table(w)
			fmt.Fprintln(tw, "m\tmax per-item error\tmax error / √m\ttop-item rel error")
			for _, m := range ms {
				var maxErrs, topRel []float64
				for trial := 0; trial < trials; trial++ {
					wl, err := (hh.ZipfDomainGen{N: n, D: d, M: m, K: k, S: 1.2}).Generate(g.Split())
					if err != nil {
						return err
					}
					// The reduction runs through the public streaming
					// clients and DomainServer, so this experiment measures
					// the engines production traffic uses.
					vals := make([][]int, n)
					for u, us := range wl.Users {
						vals[u] = us.Values(d)
					}
					srv, _, err := runDomainEval(vals, d, m, g.Int64(), []ldp.Option{ldp.WithEpsilon(1), ldp.WithSparsity(k)})
					if err != nil {
						return err
					}
					est := make([][]float64, m)
					for x := range est {
						a, err := srv.Answer(ldp.SeriesItemQuery(x))
						if err != nil {
							return err
						}
						est[x] = a.Series
					}
					truth := wl.Truth()
					worst := 0.0
					for x := 0; x < m; x++ {
						worst = math.Max(worst, stats.MaxAbsError(est[x], truth[x]))
					}
					maxErrs = append(maxErrs, worst)
					// Relative error on the most popular item at the end.
					top, topF := 0, -1
					for x := 0; x < m; x++ {
						if truth[x][d-1] > topF {
							top, topF = x, truth[x][d-1]
						}
					}
					if topF > 0 {
						topRel = append(topRel, math.Abs(est[top][d-1]-float64(topF))/float64(topF))
					}
				}
				fmt.Fprintf(tw, "%d\t%s\t%.0f\t%.2f\n", m, meanSE(maxErrs),
					stats.Mean(maxErrs)/math.Sqrt(float64(m)), stats.Mean(topRel))
			}
			return tw.Flush()
		},
	})
}

// runLossy runs the shipped FutureRand client factory and server with a
// lossy link on the report path (order announcements are assumed
// reliable — they are one-time registration); each client is seeded from
// g, as sim.Exact seeds them. It returns the raw estimate series, the
// loss-rescaled series (bits scaled by 1/(1−p)), and delivery counts.
func runLossy(wl *workload.Workload, eps, dropProb float64, g *rng.RNG) (raw, rescaled []float64, delivered, total int, err error) {
	opts := []ldp.Option{ldp.WithMechanism(ldp.FutureRand), ldp.WithEpsilon(eps), ldp.WithSparsity(max(wl.K, 1))}
	srv, err := ldp.NewServer(wl.D, opts...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	factory, err := ldp.NewClientFactory(wl.D, opts...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	link := NewLossyLink(dropProb, g)
	for u, us := range wl.Users {
		c, err := factory.NewClient(u, g.Int64())
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if err := srv.Register(c.Order()); err != nil {
			return nil, nil, 0, 0, err
		}
		for _, v := range us.Values(wl.D) {
			if rep, ok := c.Observe(v != 0); ok && link.Deliver() {
				if err := srv.Ingest(rep); err != nil {
					return nil, nil, 0, 0, err
				}
			}
		}
	}
	raw = srv.Estimates()
	rescaled = make([]float64, len(raw))
	scale := 1 / (1 - dropProb)
	for i, v := range raw {
		rescaled[i] = v * scale
	}
	del, drop := link.Stats()
	return raw, rescaled, del, del + drop, nil
}
