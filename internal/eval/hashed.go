package eval

// E22 measures the accuracy-vs-memory trade the hashed domain encoding
// (LOLOHA) buys past the exact encoding's 4096-row wall: on a Zipf
// catalogue of up to a million items, the exact encoding can host only
// a 4096-item prefix — everything beyond it is untrackable — while
// LOLOHA tracks the whole catalogue in g bucket rows, paying hash-
// collision noise that shrinks as g grows.

import (
	"fmt"
	"io"
	"math"
	"sort"

	"rtf/internal/rng"
	"rtf/ldp"
)

// hashedEvalRow is one configuration's measured line of the E22 table.
type hashedEvalRow struct {
	label    string
	rows     int     // counter rows the server materializes
	coverage float64 // fraction of observations inside the trackable catalogue
	recall   float64 // recall@topK against the true final top items
	headRMSE float64 // RMSE over the true top items at t=d
	tailRMSE float64 // RMSE over hot items past the wall; NaN = untrackable
}

// runDomainEval feeds the whole workload through one streaming domain
// client/server configuration (user u's client seeded seed+u) and
// returns the server with the fraction of observations it could take.
// mCat is the hosted catalogue size: observations outside it are
// clamped to -1 (unset) — exactly what deploying the exact encoding
// against an oversized catalogue forces on every out-of-vocabulary
// item.
func runDomainEval(vals [][]int, d, mCat int, seed int64, opts []ldp.Option) (*ldp.DomainServer, float64, error) {
	factory, err := ldp.NewDomainClientFactory(d, mCat, opts...)
	if err != nil {
		return nil, 0, err
	}
	srv, err := ldp.NewDomainServer(d, mCat, opts...)
	if err != nil {
		return nil, 0, err
	}
	var inCat, total int
	for u := range vals {
		c, err := factory.NewClient(u, seed+int64(u))
		if err != nil {
			return nil, 0, err
		}
		if err := srv.Register(c.Item(), c.Order()); err != nil {
			return nil, 0, err
		}
		for t := 1; t <= d; t++ {
			v := vals[u][t-1]
			if v >= 0 {
				total++
				if v < mCat {
					inCat++
				} else {
					v = -1
				}
			}
			r, ok, err := c.Observe(v)
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				continue
			}
			if err := srv.Ingest(r); err != nil {
				return nil, 0, err
			}
		}
	}
	return srv, float64(inCat) / float64(max(total, 1)), nil
}

// rmseAt measures the RMSE of the server's point estimates at t=d over
// the given items against the exact truth counts.
func rmseAt(srv *ldp.DomainServer, items []int, counts map[int]int, d int) (float64, error) {
	if len(items) == 0 {
		return math.NaN(), nil
	}
	var sq float64
	for _, x := range items {
		a, err := srv.Answer(ldp.PointItemQuery(x, d))
		if err != nil {
			return 0, err
		}
		diff := a.Value - float64(counts[x])
		sq += diff * diff
	}
	return math.Sqrt(sq / float64(len(items))), nil
}

func init() {
	register(Experiment{
		ID:    "E22",
		Title: "hashed domain encodings: accuracy vs memory past the 4096-row wall",
		Claim: "LOLOHA tracks a Zipf catalogue of up to a million items in g bucket rows: head accuracy comparable to the exact encoding, tail items trackable at all (the exact encoding truncates the catalogue at 4096), and counter memory O(g·d) instead of O(m·d)",
		Run: func(w io.Writer, cfg Config) error {
			e, _ := ByID("E22")
			header(w, e, cfg)
			// Longitudinal LDP error grows like sqrt(n·rows): identifying
			// even constant-share items needs a large population, so the
			// full run uses millions of users over few periods — the
			// regime the paper's bounds are about — and the quick run is a
			// smoke test whose recall column is expected to be noise.
			n := pick(cfg, 20_000, 2_000_000)
			d := pick(cfg, 16, 32)
			k := 1
			m := pick(cfg, 50_000, 1_000_000)
			const topK = 5

			wl, err := ldp.GenerateDomain(n, d, m, k, 2.0, cfg.Seed)
			if err != nil {
				return err
			}
			// The exact truth at t=d only: per-item counts of the users'
			// final values. Nothing here — and nothing in any measured
			// configuration — materializes an m-row matrix.
			vals := make([][]int, n)
			counts := map[int]int{}
			for u := range wl.Users {
				vals[u] = wl.Users[u].Values(d)
				if v := vals[u][d-1]; v >= 0 {
					counts[v]++
				}
			}
			byHotness := func(items []int) {
				sort.Slice(items, func(i, j int) bool {
					a, b := items[i], items[j]
					if counts[a] != counts[b] {
						return counts[a] > counts[b]
					}
					return a < b
				})
			}
			hot := make([]int, 0, len(counts))
			tail := []int{}
			for x := range counts {
				hot = append(hot, x)
				if x >= ldp.MaxDomainSize {
					tail = append(tail, x)
				}
			}
			byHotness(hot)
			byHotness(tail)
			trueTop := hot[:min(topK, len(hot))]
			if len(tail) > 30 {
				tail = tail[:30]
			}
			// Recall is measured the way a frequency oracle is used for
			// identification in practice: rank a candidate dictionary —
			// the hot head plus uniform decoys — by the decoded estimate
			// and take the top topK. Ranking the raw catalogue instead is
			// meaningless for any hashed encoding: items sharing a bucket
			// share an estimate, so full-catalogue top-k resolves ties by
			// item id, not frequency.
			g := rng.NewFromSeed(cfg.Seed)
			candSet := map[int]bool{}
			for _, x := range hot[:min(50, len(hot))] {
				candSet[x] = true
			}
			for len(candSet) < 250 {
				candSet[g.IntN(m)] = true
			}
			candidates := make([]int, 0, len(candSet))
			for x := range candSet {
				candidates = append(candidates, x)
			}
			sort.Ints(candidates)

			mExact := ldp.MaxDomainSize
			base := []ldp.Option{ldp.WithMechanism(ldp.FutureRand), ldp.WithSparsity(k), ldp.WithEpsilon(1)}
			type encodingRun struct {
				label string
				mCat  int
				opts  []ldp.Option
			}
			configs := []encodingRun{{fmt.Sprintf("exact m=%d (truncated)", mExact), mExact, base}}
			for _, g := range []int{64, 256, 1024} {
				configs = append(configs, encodingRun{
					fmt.Sprintf("loloha g=%d", g), m,
					append(append([]ldp.Option{}, base...),
						ldp.WithDomainEncoding("loloha"), ldp.WithBuckets(g), ldp.WithHashSeed(uint64(cfg.Seed)+0x10f0)),
				})
			}

			rows := make([]hashedEvalRow, 0, len(configs))
			for _, c := range configs {
				srv, coverage, err := runDomainEval(vals, d, c.mCat, cfg.Seed, c.opts)
				if err != nil {
					return fmt.Errorf("%s: %w", c.label, err)
				}
				type scored struct {
					item int
					est  float64
				}
				ranked := make([]scored, 0, len(candidates))
				for _, x := range candidates {
					if x >= c.mCat {
						continue // outside the exact row's truncated catalogue
					}
					a, err := srv.Answer(ldp.PointItemQuery(x, d))
					if err != nil {
						return err
					}
					ranked = append(ranked, scored{x, a.Value})
				}
				sort.Slice(ranked, func(i, j int) bool {
					if ranked[i].est != ranked[j].est {
						return ranked[i].est > ranked[j].est
					}
					return ranked[i].item < ranked[j].item
				})
				got := map[int]bool{}
				for _, s := range ranked[:min(topK, len(ranked))] {
					got[s.item] = true
				}
				hit := 0
				for _, x := range trueTop {
					if got[x] {
						hit++
					}
				}
				headRMSE, err := rmseAt(srv, trueTop, counts, d)
				if err != nil {
					return err
				}
				tailRMSE := math.NaN()
				if c.mCat >= m {
					if tailRMSE, err = rmseAt(srv, tail, counts, d); err != nil {
						return err
					}
				}
				rows = append(rows, hashedEvalRow{
					label: c.label, rows: srv.Encoding().Rows(), coverage: coverage,
					recall:   float64(hit) / float64(max(len(trueTop), 1)),
					headRMSE: headRMSE, tailRMSE: tailRMSE,
				})
			}

			fmt.Fprintf(w, "   workload: n=%d users, d=%d, Zipf(s=2.0) over m=%d items; truth at t=d; %d hot tail items past the %d-row wall; recall over a %d-item candidate dictionary\n",
				n, d, m, len(tail), ldp.MaxDomainSize, len(candidates))
			tw := table(w)
			fmt.Fprintf(tw, "encoding\trows\tcounter MB\tcoverage\trecall@%d\thead RMSE\ttail RMSE\n", topK)
			for _, r := range rows {
				tailS := "untrackable"
				if !math.IsNaN(r.tailRMSE) {
					tailS = fmt.Sprintf("%.1f", r.tailRMSE)
				}
				fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f%%\t%.2f\t%.1f\t%s\n",
					r.label, r.rows, float64(r.rows)*2*float64(d)*8/1e6,
					100*r.coverage, r.recall, r.headRMSE, tailS)
			}
			return tw.Flush()
		},
	})
}
