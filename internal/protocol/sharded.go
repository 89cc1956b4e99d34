package protocol

import (
	"fmt"
	"math"
	"sync/atomic"

	"rtf/internal/dyadic"
)

// Sharded is a lock-free sharded accumulator for Algorithm 2: the same
// one-counter-per-dyadic-interval state as Server, split into shards so
// that many ingestion goroutines can accumulate reports concurrently
// without a mutex. All mutation is done with atomic adds, so any
// goroutine may write to any shard; callers route by shard index (e.g.
// connection id modulo NumShards) purely to keep hot counters on
// distinct cache lines.
//
// Because ingestion only ever adds ±1 into int64 counters, addition is
// exact, commutative and associative: estimates from a Sharded
// accumulator are bit-for-bit identical to a serial Server fed the same
// reports in any order. The parallel simulation engine and the
// rtf-serve batch-ingest service are both built on this type.
type Sharded struct {
	d      int
	scale  float64
	tree   *dyadic.Tree
	cols   []int // the interval sums a shard keeps (see scopeColumns); nil on every live accumulator
	shards []accShard
}

// accShard is one shard's counters. The slices are allocated separately
// per shard, so concurrent writers on different shards touch disjoint
// cache lines.
type accShard struct {
	sums     []int64 // Σ of ±1 report bits, one per dyadic interval (atomic)
	users    int64   // registered users (atomic)
	perOrder []int64 // registered users per order (atomic)
	version  int64   // monotone mutation counter (atomic), see Version
}

// NewSharded builds a sharded accumulator for horizon d with the given
// estimator scale and shard count (at least 1).
func NewSharded(d int, scale float64, shards int) *Sharded {
	if shards < 1 {
		panic(fmt.Sprintf("protocol: shard count %d < 1", shards))
	}
	s := newSharded(d, scale)
	s.shards = make([]accShard, shards)
	for i := range s.shards {
		s.shards[i] = accShard{
			sums:     make([]int64, s.tree.Size()),
			perOrder: make([]int64, dyadic.NumOrders(d)),
		}
	}
	return s
}

func newSharded(d int, scale float64) *Sharded {
	if !dyadic.IsPow2(d) {
		panic(fmt.Sprintf("protocol: d=%d not a power of two", d))
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		panic(fmt.Sprintf("protocol: invalid estimator scale %v", scale))
	}
	return &Sharded{d: d, scale: scale, tree: dyadic.NewTree(d)}
}

// ShardedOver builds a read-only single-shard accumulator whose counters
// ARE the given raw row, scoped to periods [l..r] (l = r = 0: a full
// row) — the Boolean counterpart of DomainShardedOver, with the same
// contract: adopted, not copied; a read the scope does not cover
// panics; a mismatched length or a negative count is an error.
func ShardedOver(d int, scale float64, l, r int, row []int64) (*Sharded, error) {
	s := newSharded(d, scale)
	s.cols = scopeColumns(s.tree, l, r)
	if want := ScopedStride(d, l, r); len(row) != want {
		return nil, fmt.Errorf("protocol: raw row of %d counters for an accumulator with %d", len(row), want)
	}
	users, perOrder, sums := SplitRaw(d, row)
	if err := checkCounts(users, perOrder); err != nil {
		return nil, err
	}
	s.shards = []accShard{{sums: sums, users: users, perOrder: perOrder}}
	return s, nil
}

// checkCounts refuses raw state with a negative user or per-order count.
func checkCounts(users int64, perOrder []int64) error {
	if users < 0 {
		return fmt.Errorf("protocol: merging negative user count %d", users)
	}
	for h, c := range perOrder {
		if c < 0 {
			return fmt.Errorf("protocol: merging negative count %d at order %d", c, h)
		}
	}
	return nil
}

// NumShards returns the number of shards.
func (s *Sharded) NumShards() int { return len(s.shards) }

// D returns the horizon.
func (s *Sharded) D() int { return s.d }

// Scale returns the estimator scale.
func (s *Sharded) Scale() float64 { return s.scale }

// Tree returns the dyadic index used by this accumulator.
func (s *Sharded) Tree() *dyadic.Tree { return s.tree }

func (s *Sharded) shard(i int) *accShard {
	// In-range shard ids (every caller in practice) skip the divide;
	// the modulo is only a fallback for oversized ids.
	if uint(i) < uint(len(s.shards)) {
		return &s.shards[i]
	}
	return &s.shards[i%len(s.shards)]
}

// Register records a user's sampled order into the given shard.
func (s *Sharded) Register(shard, order int) {
	sh := s.shard(shard)
	if order < 0 || order >= len(sh.perOrder) {
		panic(fmt.Sprintf("protocol: order %d out of range", order))
	}
	atomic.AddInt64(&sh.users, 1)
	atomic.AddInt64(&sh.perOrder[order], 1)
	atomic.AddInt64(&sh.version, 1)
}

// Ingest accumulates one report into the given shard.
func (s *Sharded) Ingest(shard int, r Report) {
	if r.Bit != 1 && r.Bit != -1 {
		panic(fmt.Sprintf("protocol: report bit %d not ±1", r.Bit))
	}
	flat := s.tree.FlatIndex(dyadic.Interval{Order: r.Order, Index: r.J})
	atomic.AddInt64(&s.shard(shard).sums[flat], int64(r.Bit))
}

// IngestSum adds a pre-aggregated sum of ±1 bits for one interval into
// the given shard.
func (s *Sharded) IngestSum(shard int, iv dyadic.Interval, sum int64) {
	sh := s.shard(shard)
	atomic.AddInt64(&sh.sums[s.tree.FlatIndex(iv)], sum)
	atomic.AddInt64(&sh.version, 1)
}

// AdvanceVersion bumps the given shard's mutation counter. Ingest is
// deliberately version-silent — a second atomic add per report would
// roughly double the hot-path cost — so writers that batch raw reports
// call AdvanceVersion once per applied batch instead. Every collector in
// internal/transport does this; raw Ingest callers that want their
// writes visible to version-stamped caches must do the same.
func (s *Sharded) AdvanceVersion(shard int) {
	atomic.AddInt64(&s.shard(shard).version, 1)
}

// Version folds the per-shard mutation counters into one monotone
// stamp. Each component only grows, so the sum observed by a reader can
// only grow; if two Version calls bracketing a derived computation
// return the same value, no Register/IngestSum/MergeRaw/AdvanceVersion
// completed in between, and the derived result may be served again
// verbatim. At quiescence (all writers' batches applied and advanced)
// an unchanged stamp therefore certifies bit-for-bit freshness.
func (s *Sharded) Version() uint64 {
	var v int64
	for i := range s.shards {
		v += atomic.LoadInt64(&s.shards[i].version)
	}
	return uint64(v)
}

// Users returns the number of registered users across all shards.
func (s *Sharded) Users() int {
	var n int64
	for i := range s.shards {
		n += atomic.LoadInt64(&s.shards[i].users)
	}
	return int(n)
}

// intervalSum folds one interval's counter across shards. Pure int64
// addition, so the result is independent of shard assignment.
func (s *Sharded) intervalSum(flat int) int64 {
	if s.cols != nil {
		flat = sumAt(s.cols, flat)
	}
	var sum int64
	for i := range s.shards {
		sum += atomic.LoadInt64(&s.shards[i].sums[flat])
	}
	return sum
}

// EstimateAt returns â[t] via the dyadic decomposition C(t), reading the
// live counters. It is safe to call concurrently with ingestion: each
// counter is loaded atomically, and the per-interval totals are summed
// in the same decomposition order as Server.EstimateAt, so a quiesced
// Sharded accumulator agrees with the serial server bit for bit.
func (s *Sharded) EstimateAt(t int) float64 {
	var est float64
	for _, iv := range dyadic.Decompose(t, s.d) {
		est += s.scale * float64(s.intervalSum(s.tree.FlatIndex(iv)))
	}
	return est
}

// EstimateSeries returns â[1..d] from the live counters, with the same
// prefix recurrence and float addition order as Server.EstimateSeries,
// so a quiesced accumulator agrees with the serial server bit for bit.
func (s *Sharded) EstimateSeries() []float64 {
	return s.EstimateSeriesTo(s.d)
}

// EstimateSeriesTo returns â[1..r]. The prefix recurrence at t only
// reads earlier entries, so the truncated series is bit-for-bit a
// prefix of EstimateSeries at a fraction of the cross-shard folds —
// the window-query path of the ingest server relies on this.
func (s *Sharded) EstimateSeriesTo(r int) []float64 {
	if r < 1 || r > s.d {
		panic(fmt.Sprintf("protocol: series bound %d out of range [1..%d]", r, s.d))
	}
	out := make([]float64, r)
	for t := 1; t <= r; t++ {
		low := t & (-t)
		h := dyadic.Log2(low)
		est := s.scale * float64(s.intervalSum(s.tree.FlatIndex(dyadic.Interval{Order: h, Index: t >> uint(h)})))
		if prev := t - low; prev > 0 {
			est += out[prev-1]
		}
		out[t-1] = est
	}
	return out
}

// EstimateChange returns the unbiased estimate of a[r] − a[l−1] over the
// direct dyadic cover of [l..r], mirroring Server.EstimateChange on the
// live counters.
func (s *Sharded) EstimateChange(l, r int) float64 {
	var est float64
	for _, iv := range dyadic.DecomposeRange(l, r, s.d) {
		est += s.scale * float64(s.intervalSum(s.tree.FlatIndex(iv)))
	}
	return est
}

// Fold returns the accumulator's raw state summed across shards: the
// registered-user count, the per-order user counts, and the per-interval
// bit sums (flat tree order). Counters are loaded atomically, but a fold
// taken concurrently with ingestion is not a point-in-time cut across
// intervals; quiesce (or fence) ingestion first when exactness matters.
// These are the exact integers a cluster gateway ships between nodes:
// because the estimator is a fixed linear function of them, merging raw
// sums across machines reproduces a single serial server bit for bit,
// which merging scaled float answers would not.
func (s *Sharded) Fold() (users int64, perOrder, sums []int64) {
	row := make([]int64, 1+len(s.shards[0].perOrder)+len(s.shards[0].sums))
	s.FoldInto(nil, row)
	return SplitRaw(s.d, row)
}

// Columns returns where in a shard's sums the interval sums of a row
// scoped to periods [l..r] sit, in that row's order (nil for l = r = 0):
// FoldInto's column argument, derived once per request.
func (s *Sharded) Columns(l, r int) []int {
	cols := scopeColumns(s.tree, l, r)
	if s.cols != nil {
		for i, flat := range cols {
			cols[i] = sumAt(s.cols, flat)
		}
	}
	return cols
}

// FoldInto overwrites one raw row with the same state — the Boolean
// accumulator is the one-row case of the raw counter matrix: the header
// columns, then the interval sums at cols (as Columns returns them; nil
// is every one, RawStride(d) counters in all).
func (s *Sharded) FoldInto(cols []int, row []int64) {
	clear(row)
	_, perOrder, sums := SplitRaw(s.d, row)
	for i := range s.shards {
		sh := &s.shards[i]
		row[0] += atomic.LoadInt64(&sh.users)
		for h := range sh.perOrder {
			perOrder[h] += atomic.LoadInt64(&sh.perOrder[h])
		}
		if cols == nil {
			for f := range sh.sums {
				sums[f] += atomic.LoadInt64(&sh.sums[f])
			}
		}
		for j, f := range cols {
			sums[j] += atomic.LoadInt64(&sh.sums[f])
		}
	}
}

// MergeRaw folds raw accumulator state — a user count, per-order user
// counts and per-interval bit sums as produced by Fold or shipped from
// another machine — into shard 0, the sharded counterpart of
// Server.MergeRaw. Shard assignment never affects estimates (addition
// is exact and commutative), so merging into one shard is equivalent to
// replaying the original ingestion. It fails, without modifying the
// accumulator, on mismatched lengths or negative counts.
func (s *Sharded) MergeRaw(users int64, perOrder, sums []int64) error {
	sh := &s.shards[0]
	if len(perOrder) != len(sh.perOrder) {
		return fmt.Errorf("protocol: merging %d per-order counts into an accumulator with %d orders", len(perOrder), len(sh.perOrder))
	}
	if len(sums) != len(sh.sums) {
		return fmt.Errorf("protocol: merging %d interval sums into an accumulator with %d intervals", len(sums), len(sh.sums))
	}
	if err := checkCounts(users, perOrder); err != nil {
		return err
	}
	for f, v := range sums {
		atomic.AddInt64(&sh.sums[f], v)
	}
	atomic.AddInt64(&sh.users, users)
	for h, c := range perOrder {
		atomic.AddInt64(&sh.perOrder[h], c)
	}
	atomic.AddInt64(&sh.version, 1)
	return nil
}

// Snapshot folds the current shard state into a fresh serial Server,
// from which the full estimate series, range estimates and consistency
// post-processing are available. Counters are loaded atomically, but a
// snapshot taken concurrently with ingestion is not a point-in-time cut
// across intervals; quiesce ingestion first when exactness across the
// whole tree matters.
func (s *Sharded) Snapshot() *Server {
	srv := NewServer(s.d, s.scale)
	srv.MergeSharded(s)
	return srv
}

// MergeSharded folds a sharded accumulator's state into s, the same way
// Merge folds another serial server. Both must have the same horizon and
// scale.
func (s *Server) MergeSharded(o *Sharded) {
	if o.d != s.d || o.scale != s.scale {
		panic("protocol: merging incompatible servers")
	}
	for i := range o.shards {
		sh := &o.shards[i]
		for flat := range sh.sums {
			s.sums[flat] += atomic.LoadInt64(&sh.sums[flat])
		}
		s.users += int(atomic.LoadInt64(&sh.users))
		for h := range sh.perOrder {
			s.perOrder[h] += int(atomic.LoadInt64(&sh.perOrder[h]))
		}
	}
}
