package eval

import (
	"fmt"
	"io"
	"math"

	"rtf/internal/dyadic"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/sim"
	"rtf/internal/stats"
	"rtf/internal/workload"
)

// symDiffIntervals counts the intervals carrying noise in the
// differenced estimate â[r] − â[l−1]: shared intervals of the two
// prefix decompositions cancel exactly (the counters are identical), so
// only the symmetric difference contributes.
func symDiffIntervals(l, r, d int) int {
	in := map[dyadic.Interval]bool{}
	for _, iv := range dyadic.Decompose(r, d) {
		in[iv] = true
	}
	n := len(in)
	if l > 1 {
		for _, iv := range dyadic.Decompose(l-1, d) {
			if in[iv] {
				n--
			} else {
				n++
			}
		}
	}
	return n
}

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "range queries: direct dyadic cover vs differenced prefix estimates",
		Claim: "system property behind the Change query: covering [l..r] with at most 2·⌈log₂(r−l+1)⌉ intervals beats differencing two prefix estimates (up to 2·(1+log₂ d) intervals) on short ranges, and both are unbiased",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E21")
			header(w, e, cfg)
			n := pick(cfg, 5000, 50000)
			d := pick(cfg, 256, 1024)
			k := pick(cfg, 4, 8)
			trials := pick(cfg, 4, 12)
			g := rng.NewFromSeed(cfg.Seed)
			fw := sim.Framework{Kind: protocol.FutureRand, Eps: 1}
			gen := workload.UniformGen{N: n, D: d, K: k}

			// Ranges are placed at random: aligned placements let the two
			// prefix decompositions share intervals whose noise cancels in
			// the difference, so a fixed placement under- or over-states
			// the gap. Per placement, the cover uses the dyadic intervals
			// of [l..r] directly; the difference pays for every interval
			// in the symmetric difference of C(r) and C(l−1).
			widths := []int{4, 16, 64, d / 2}
			const placements = 16
			tw := table(w)
			fmt.Fprintln(tw, "range width\tcover ivs\tdiff ivs\tcover |err|\tdiff |err|\tnoise gain")
			for _, width := range widths {
				var coverErr, diffErr []float64
				var coverIvs, diffIvs float64
				for trial := 0; trial < trials; trial++ {
					wl, err := gen.Generate(g.Split())
					if err != nil {
						return err
					}
					srv, err := fw.RunServer(wl, g.Split())
					if err != nil {
						return err
					}
					truth := wl.Truth()
					for p := 0; p < placements; p++ {
						l := 1 + g.IntN(d-width+1)
						r := l + width - 1
						coverIvs += float64(len(dyadic.DecomposeRange(l, r, d)))
						diffIvs += float64(symDiffIntervals(l, r, d))
						trueChange := float64(truth[r-1])
						if l > 1 {
							trueChange -= float64(truth[l-2])
						}
						cover := srv.EstimateChange(l, r)
						diff := srv.EstimateAt(r)
						if l > 1 {
							diff -= srv.EstimateAt(l - 1)
						}
						coverErr = append(coverErr, math.Abs(cover-trueChange))
						diffErr = append(diffErr, math.Abs(diff-trueChange))
					}
				}
				total := float64(trials * placements)
				fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%s\t%s\t%.2fx\n", width,
					coverIvs/total, diffIvs/total,
					meanSE(coverErr), meanSE(diffErr), stats.Mean(diffErr)/stats.Mean(coverErr))
			}
			return tw.Flush()
		},
	})
}
