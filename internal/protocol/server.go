package protocol

import (
	"fmt"
	"math"

	"rtf/internal/dyadic"
)

// Server is the server-side algorithm Asvr (Algorithm 2). It accumulates
// perturbed partial-sum reports into one counter per dyadic interval and
// produces, for any time t, the unbiased estimate
//
//	â[t] = Σ_{I_{h,j} ∈ C(t)} scale · Σ_{u ∈ U_h} ω_u[j],
//
// where scale = (1+log₂ d)·c_gap⁻¹ for the paper's protocol (line 5) and
// k·(1+log₂ d)·c_gap⁻¹ for the Erlingsson et al. baseline (Section 6).
//
// The server is online: an estimate at time t uses only intervals ending
// at or before t, whose reports have all arrived by time t.
type Server struct {
	d        int
	scale    float64
	tree     *dyadic.Tree
	sums     []int64 // Σ of ±1 report bits, one per dyadic interval
	users    int     // registered users (diagnostics)
	perOrder []int   // registered users per order
}

// NewServer builds a server for horizon d with the given estimator scale.
func NewServer(d int, scale float64) *Server {
	if !dyadic.IsPow2(d) {
		panic(fmt.Sprintf("protocol: d=%d not a power of two", d))
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		panic(fmt.Sprintf("protocol: invalid estimator scale %v", scale))
	}
	tr := dyadic.NewTree(d)
	return &Server{
		d:        d,
		scale:    scale,
		tree:     tr,
		sums:     make([]int64, tr.Size()),
		perOrder: make([]int, dyadic.NumOrders(d)),
	}
}

// EstimatorScale returns the protocol-level scale of Algorithm 2, line 5:
// (1+log₂ d)/c_gap.
func EstimatorScale(d int, cGap float64) float64 {
	return float64(1+dyadic.Log2(d)) / cGap
}

// Register records that a user with sampled order h joined (the ℎ_u
// message of Algorithm 1, line 1).
func (s *Server) Register(order int) {
	if order < 0 || order >= len(s.perOrder) {
		panic(fmt.Sprintf("protocol: order %d out of range", order))
	}
	s.users++
	s.perOrder[order]++
}

// Users returns the number of registered users.
func (s *Server) Users() int { return s.users }

// UsersAtOrder returns |U_h|.
func (s *Server) UsersAtOrder(h int) int { return s.perOrder[h] }

// Ingest accumulates one report.
func (s *Server) Ingest(r Report) {
	if r.Bit != 1 && r.Bit != -1 {
		panic(fmt.Sprintf("protocol: report bit %d not ±1", r.Bit))
	}
	flat := s.tree.FlatIndex(dyadic.Interval{Order: r.Order, Index: r.J})
	s.sums[flat] += int64(r.Bit)
}

// IngestSum adds a pre-aggregated sum of ±1 bits for one interval; the
// fast simulation engine uses this to inject binomially-sampled zero-
// coordinate noise without materializing individual reports.
func (s *Server) IngestSum(iv dyadic.Interval, sum int64) {
	s.sums[s.tree.FlatIndex(iv)] += sum
}

// EstimateAt returns â[t] via the dyadic decomposition C(t) (line 6).
func (s *Server) EstimateAt(t int) float64 {
	var buf [dyadic.MaxCover]dyadic.Interval
	var est float64
	for _, iv := range dyadic.AppendDecompose(buf[:0], t, s.d) {
		est += s.scale * float64(s.sums[s.tree.FlatIndex(iv)])
	}
	return est
}

// EstimateSeries returns â[1..d]. It runs in O(d) using the prefix
// structure: â[t] = â[t − 2^h] + Ŝ(I_{h, t/2^h}) where 2^h is the lowest
// set bit of t.
func (s *Server) EstimateSeries() []float64 {
	return s.EstimateSeriesTo(s.d)
}

// EstimateSeriesTo returns â[1..r]. The prefix recurrence at t only
// reads earlier entries, so the truncated series is bit-for-bit a
// prefix of EstimateSeries — window queries use it to pay O(r) instead
// of O(d).
func (s *Server) EstimateSeriesTo(r int) []float64 {
	if r < 1 || r > s.d {
		panic(fmt.Sprintf("protocol: series bound %d out of range [1..%d]", r, s.d))
	}
	out := make([]float64, r)
	prefixSeries(s.tree, s.scale, s.sums, out)
	return out
}

// EstimateChange returns an unbiased estimate of a[r] − a[l−1], the net
// change in the count over the range [l..r], using the direct dyadic
// cover of the range (at most 2·⌈log₂(r−l+1)⌉ intervals — fewer than the
// up-to-2(1+log₂ d) intervals of differencing two prefix estimates, so
// short ranges get proportionally less noise). Valid online once time r
// has passed.
func (s *Server) EstimateChange(l, r int) float64 {
	var buf [dyadic.MaxCover]dyadic.Interval
	var est float64
	for _, iv := range dyadic.AppendDecomposeRange(buf[:0], l, r, s.d) {
		est += s.scale * float64(s.sums[s.tree.FlatIndex(iv)])
	}
	return est
}

// IntervalSums exposes the raw per-interval bit sums (for the consistency
// post-processing extension, which re-weights them).
func (s *Server) IntervalSums() []int64 { return s.sums }

// MergeRaw folds raw accumulator state — a user count, per-order user
// counts and per-interval bit sums as produced by Sharded.Fold, possibly
// shipped from another machine — into s. Because the estimator is a
// fixed linear function of these integers, merging the raw sums of N
// partitioned servers reproduces one serial server fed all their reports
// bit for bit; this is the gather half of the cluster gateway. It fails,
// without modifying the server, on mismatched lengths or negative
// counts.
func (s *Server) MergeRaw(users int64, perOrder, sums []int64) error {
	if users < 0 {
		return fmt.Errorf("protocol: merging negative user count %d", users)
	}
	if len(perOrder) != len(s.perOrder) {
		return fmt.Errorf("protocol: merging %d per-order counts into a server with %d orders", len(perOrder), len(s.perOrder))
	}
	if len(sums) != len(s.sums) {
		return fmt.Errorf("protocol: merging %d interval sums into a server with %d intervals", len(sums), len(s.sums))
	}
	for h, c := range perOrder {
		if c < 0 {
			return fmt.Errorf("protocol: merging negative count %d at order %d", c, h)
		}
	}
	for i, v := range sums {
		s.sums[i] += v
	}
	s.users += int(users)
	for h, c := range perOrder {
		s.perOrder[h] += int(c)
	}
	return nil
}

// Scale returns the estimator scale.
func (s *Server) Scale() float64 { return s.scale }

// Tree returns the dyadic index used by this server.
func (s *Server) Tree() *dyadic.Tree { return s.tree }

// D returns the horizon.
func (s *Server) D() int { return s.d }
