// Package privacy verifies the differential-privacy guarantees of the
// implementation by exact computation, with no sampling error:
//
//   - RandomizerRatio checks Lemma 5.2 directly: over all input pairs
//     b, b′ ∈ {−1,1}^k and outputs s, the likelihood ratio
//     Pr[R̃(b)=s] / Pr[R̃(b′)=s] is bounded by e^ε. Because the output
//     probability depends only on the Hamming distance to the input, the
//     maximization reduces to distances, making k in the thousands
//     tractable.
//
//   - ClientRatio checks Theorem 4.5 end to end: it enumerates every
//     admissible user stream for small (d, k), computes the exact output
//     distribution of the client Aclt (order h, report vector ω), and
//     maximizes the likelihood ratio over all stream pairs and outputs.
//     This exercises the full pipeline: derivative, partial sums, support
//     compaction, the online pre-computation trick and the zero-
//     coordinate coins.
//
//   - DomainClientRatio extends ClientRatio to the domain client that
//     ships, under either encoding: catalogue streams are turned into
//     the indicator stream each target row sees by the shipped
//     hh.DomainClient itself, and the ratio is taken over the full
//     output (row, h, ω).
package privacy

import (
	"fmt"
	"math"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/probmath"
	"rtf/internal/protocol"
	"rtf/internal/sparse"
)

// RatioReport is the result of an exact privacy check.
type RatioReport struct {
	EpsBudget   float64 // the ε the mechanism was configured with
	EpsRealized float64 // max over outputs/input pairs of ln likelihood ratio
}

// Satisfied reports whether the realized ratio is within budget.
func (r RatioReport) Satisfied() bool { return r.EpsRealized <= r.EpsBudget+1e-12 }

// RandomizerRatio returns the exact worst-case likelihood ratio of the
// composed randomizer R̃ for the given parameters. For any b, b′ and s,
// Pr[R̃(b)=s] = q(‖b−s‖₀) where q is g inside the annulus and P*out
// outside; the worst ratio is therefore max_i q(i) / min_i q(i), i.e.
// exactly ln(p'max/p'min) of Lemma 5.2.
func RandomizerRatio(p *probmath.Params) RatioReport {
	return RatioReport{EpsBudget: p.Eps, EpsRealized: p.EpsActual}
}

// StreamEnumerator enumerates all Boolean streams over d periods with at
// most k changes (counting the implicit st[0] = 0 convention), i.e. the
// admissible inputs of the longitudinal problem.
func StreamEnumerator(d, k int) [][]uint8 {
	var out [][]uint8
	total := 1 << uint(d)
	for mask := 0; mask < total; mask++ {
		st := make([]uint8, d)
		for i := 0; i < d; i++ {
			st[i] = uint8(mask >> uint(i) & 1)
		}
		if sparse.NumChanges(st) <= k {
			out = append(out, st)
		}
	}
	return out
}

// ClientDist computes the exact output distribution of the client Aclt on
// stream st: a map from (h, ω) to probability. The report vector ω for
// order h has length L = d/2^h; outcomes are encoded as ω interpreted as
// an L-bit integer (bit set ⇔ −1).
//
// Derivation: conditioned on h (probability 1/(1+log d)), let v be the
// partial-sum vector at order h with support σ at positions j₁<…<j_σ.
// The zero coordinates are independent fair coins (Property III):
// probability 2^−(L−σ) for any fixed pattern. The support outputs follow
// the prefix marginals of R̃(1^k) (Section 5.4): for a pattern w on the
// support with m₁ mismatches w_{j_i} ≠ v_{j_i}, the probability is
// MarginalPrefix(σ, m₁).
func ClientDist(st []uint8, d int, p *probmath.Params) map[[2]int]float64 {
	out := make(map[[2]int]float64)
	numOrders := dyadic.NumOrders(d)
	pOrder := 1 / float64(numOrders)
	for h := 0; h < numOrders; h++ {
		L := d >> uint(h)
		v := sparse.PartialSumsAtOrder(st, h)
		var support []int
		for j, x := range v {
			if x != 0 {
				support = append(support, j)
			}
		}
		sigma := len(support)
		coinProb := math.Pow(0.5, float64(L-sigma))
		for omega := 0; omega < 1<<uint(L); omega++ {
			m1 := 0
			for i, j := range support {
				_ = i
				wj := int8(1)
				if omega>>uint(j)&1 == 1 {
					wj = -1
				}
				if wj != v[j] {
					m1++
				}
			}
			pr := pOrder * coinProb * p.MarginalPrefix(sigma, m1)
			out[[2]int{h, omega}] = pr
		}
	}
	return out
}

// ClientRatio exhaustively verifies Theorem 4.5 for small d and k: it
// returns the worst-case likelihood ratio of the full client output
// (h, ω) over every pair of admissible streams. d must be a power of two
// with d ≤ 10 to keep enumeration tractable.
func ClientRatio(d, k int, eps float64) (RatioReport, error) {
	if !dyadic.IsPow2(d) || d > 1024 {
		return RatioReport{}, fmt.Errorf("privacy: d=%d must be a small power of two", d)
	}
	if d > 10 {
		return RatioReport{}, fmt.Errorf("privacy: d=%d too large for exhaustive enumeration", d)
	}
	p, err := probmath.NewFutureRand(k, eps)
	if err != nil {
		return RatioReport{}, err
	}
	streams := StreamEnumerator(d, k)
	dists := make([]map[[2]int]float64, len(streams))
	for i, st := range streams {
		dists[i] = ClientDist(st, d, p)
		// Sanity: the distribution must sum to 1.
		sum := 0.0
		for _, pr := range dists[i] {
			sum += pr
		}
		if math.Abs(sum-1) > 1e-6 {
			return RatioReport{}, fmt.Errorf("privacy: client distribution sums to %v for stream %v", sum, st)
		}
	}
	worst := 0.0
	for i := range dists {
		for j := range dists {
			if i == j {
				continue
			}
			for key, pi := range dists[i] {
				pj := dists[j][key]
				if pi <= 0 || pj <= 0 {
					return RatioReport{}, fmt.Errorf("privacy: zero-probability output %v", key)
				}
				if r := math.Log(pi / pj); r > worst {
					worst = r
				}
			}
		}
	}
	return RatioReport{EpsBudget: eps, EpsRealized: worst}, nil
}

// DomainClientRatio exhaustively verifies the domain reduction for small
// d, k and catalogue: it returns the worst-case likelihood ratio of the
// domain client's output (row, h, ω) over every pair of catalogue
// streams with at most k value changes (the first assignment counts as
// a change, as in hh.DomainStream). Each stream's indicator stream at
// each target row is what the shipped hh.DomainClient feeds its Boolean
// client, recorded through an Observer. The row is uniform over
// enc.Rows() and drawn independently of the data, so at a fixed row the
// ratio is that of ClientDist over the two indicator streams; streams
// inducing the same indicator stream at a row share one distribution.
func DomainClientRatio(d, k int, eps float64, enc hh.DomainEncoding) (RatioReport, error) {
	return domainClientRatio(d, k, k, eps, enc)
}

// domainClientRatio is DomainClientRatio over catalogue streams with up
// to changes value changes, against a mechanism configured for k. An
// indicator stream with more than k changes is outside the mechanism's
// guarantee (the shipped client refuses its k+1-th non-zero partial
// sum), and fails the check.
func domainClientRatio(d, changes, k int, eps float64, enc hh.DomainEncoding) (RatioReport, error) {
	if !dyadic.IsPow2(d) || d > 10 {
		return RatioReport{}, fmt.Errorf("privacy: d=%d must be a power of two no larger than 8", d)
	}
	if err := enc.Validate(); err != nil {
		return RatioReport{}, err
	}
	p, err := probmath.NewFutureRand(k, eps)
	if err != nil {
		return RatioReport{}, err
	}
	// Distinct indicator streams per row, in first-seen order.
	seen := make([]map[string]bool, enc.Rows())
	induced := make([][][]uint8, enc.Rows())
	for r := range seen {
		seen[r] = make(map[string]bool)
	}
	var rec recorder
	for _, vals := range catalogueStreams(d, changes, enc.M) {
		for r := range induced {
			rec.bits = rec.bits[:0]
			c, err := hh.NewDomainClient(r, enc, &rec)
			if err != nil {
				return RatioReport{}, err
			}
			for _, v := range vals {
				if _, _, err := c.Observe(v); err != nil {
					return RatioReport{}, err
				}
			}
			st := append([]uint8(nil), rec.bits...)
			if n := sparse.NumChanges(st); n > k {
				return RatioReport{}, fmt.Errorf("privacy: catalogue stream %v gives row %d the indicator stream %v with %d changes, past the mechanism's k=%d", vals, r, st, n, k)
			}
			if !seen[r][string(st)] {
				seen[r][string(st)] = true
				induced[r] = append(induced[r], st)
			}
		}
	}
	worst := 0.0
	for _, streams := range induced {
		dists := make([]map[[2]int]float64, len(streams))
		for i, st := range streams {
			dists[i] = ClientDist(st, d, p)
		}
		for i := range dists {
			for j := range dists {
				for key, pi := range dists[i] {
					if r := math.Log(pi / dists[j][key]); r > worst {
						worst = r
					}
				}
			}
		}
	}
	return RatioReport{EpsBudget: eps, EpsRealized: worst}, nil
}

// catalogueStreams enumerates the value series over d periods of every
// catalogue stream over [0..m) with at most k value changes: −1 until
// the first change, and no change to the value already held.
func catalogueStreams(d, k, m int) [][]int {
	var out [][]int
	vals := make([]int, d)
	var walk func(t, changes, cur int)
	walk = func(t, changes, cur int) {
		if t == d {
			out = append(out, append([]int(nil), vals...))
			return
		}
		vals[t] = cur
		walk(t+1, changes, cur)
		if changes == k {
			return
		}
		for v := 0; v < m; v++ {
			if v != cur {
				vals[t] = v
				walk(t+1, changes+1, v)
			}
		}
	}
	walk(0, 0, -1)
	return out
}

// recorder is the Boolean client under test's stand-in: it records the
// indicator values it is fed and never reports.
type recorder struct{ bits []uint8 }

func (r *recorder) Order() int { return 0 }

func (r *recorder) Observe(value bool) (protocol.Report, bool) {
	var b uint8
	if value {
		b = 1
	}
	r.bits = append(r.bits, b)
	return protocol.Report{}, false
}

// OnlineOfflineTV computes, exactly, the total-variation distance between
// the online FutureRand output distribution on a full-support input and
// the offline R̃ distribution on the same input (experiment E12's exact
// half). By the sign-flip symmetry both are q(‖w−v‖₀); the function
// verifies this by computing the online distribution through the prefix
// marginals and differencing. k must be ≤ 16.
func OnlineOfflineTV(p *probmath.Params) float64 {
	k := p.K
	if k > 16 {
		panic("privacy: OnlineOfflineTV requires k <= 16")
	}
	tv := 0.0
	for m1 := 0; m1 <= k; m1++ {
		online := p.MarginalPrefix(k, m1)
		offline := p.OutputProb(m1)
		count := float64(choose(k, m1))
		tv += count * math.Abs(online-offline)
	}
	return tv / 2
}

func choose(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}
