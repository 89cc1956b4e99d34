package protocol

import (
	"fmt"
	"slices"

	"rtf/internal/dyadic"
)

// Sharded is the Boolean accumulator of Algorithm 2, split into shards
// so that many ingestion goroutines can accumulate reports concurrently:
// the one-row view of a DomainSharded (m = 1), whose doc states the
// exactness argument and the lock discipline. Every method is the
// matrix's at row 0, so estimates are bit-for-bit a serial Server's fed
// the same reports, in any order and under any shard assignment. The
// parallel simulation engine and the rtf-serve Boolean ingest service
// are both built on this type.
type Sharded struct{ m *DomainSharded }

// NewSharded builds a sharded accumulator for horizon d with the given
// estimator scale and shard count (at least 1).
func NewSharded(d int, scale float64, shards int) *Sharded {
	return &Sharded{NewDomainSharded(d, 1, scale, shards)}
}

// ShardedOver builds a read-only single-shard accumulator whose counters
// ARE the given raw row, scoped to periods [l..r] (l = r = 0: a full
// row): DomainShardedOver with one row, under the same contract —
// adopted, not copied; no writer and no lock; a read the scope does not
// cover panics; a mismatched length or a negative count is an error.
func ShardedOver(d int, scale float64, l, r int, row []int64) (*Sharded, error) {
	m, err := DomainShardedOver(d, 1, scale, l, r, row)
	if err != nil {
		return nil, err
	}
	return &Sharded{m}, nil
}

// D returns the horizon.
func (s *Sharded) D() int { return s.m.d }

// Scale returns the estimator scale.
func (s *Sharded) Scale() float64 { return s.m.scale }

// Lock takes the given shard's write lock for a run of writes; the
// writer's Register and Ingest take item 0.
func (s *Sharded) Lock(shard int) DomainWriter { return s.m.Lock(shard) }

// IngestSum adds a pre-aggregated sum of ±1 bits for one interval into
// the given shard: a run of one. Only tests and benchmarks call it, the
// root package's BenchmarkAnswerSeriesCold and transport's
// TestSeriesMemoAllocFree among them.
func (s *Sharded) IngestSum(shard int, iv dyadic.Interval, sum int64) {
	w := s.m.Lock(shard)
	defer w.Unlock()
	w.cells[s.m.sumOff+s.m.tree.FlatIndex(iv)] += sum
}

// Resident reports the shards that have a counter row and the bytes
// they hold (see DomainSharded.Resident).
func (s *Sharded) Resident() (shards int, bytes int64) { return s.m.Resident() }

// Version returns the monotone mutation stamp (see DomainSharded.Version).
func (s *Sharded) Version() uint64 { return s.m.Version() }

// Users returns the number of registered users across all shards.
func (s *Sharded) Users() int { return s.m.Users() }

// EstimateAt returns â[t] via the dyadic decomposition C(t).
func (s *Sharded) EstimateAt(t int) float64 { return s.m.EstimateAt(0, t) }

// EstimateSeries returns â[1..d].
func (s *Sharded) EstimateSeries() []float64 { return s.EstimateSeriesTo(s.m.d) }

// EstimateSeriesTo returns â[1..r], bit-for-bit a prefix of
// EstimateSeries.
func (s *Sharded) EstimateSeriesTo(r int) []float64 { return s.m.EstimateSeriesTo(0, r) }

// PrefixSeries is the series kernel: it writes â[1..len(out)] into out
// from interval sums in flat tree order — the sums of a full raw row, as
// FoldInto writes them. It reads only its arguments, so a caller folds
// under the read locks and runs it outside them.
func (s *Sharded) PrefixSeries(sums []int64, out []float64) {
	if len(sums) != s.m.tree.Size() || len(out) > s.m.d {
		panic(fmt.Sprintf("protocol: series of %d from %d interval sums at d=%d", len(out), len(sums), s.m.d))
	}
	prefixSeries(s.m.tree, s.m.scale, sums, out)
}

// EstimateChange returns the unbiased estimate of a[r] − a[l−1] over the
// direct dyadic cover of [l..r], mirroring Server.EstimateChange.
func (s *Sharded) EstimateChange(l, r int) float64 {
	var buf [dyadic.MaxCover]dyadic.Interval
	return s.m.estimate(0, dyadic.AppendDecomposeRange(buf[:0], l, r, s.m.d))
}

// Fold returns the accumulator's raw state summed across shards: the
// registered-user count, the per-order user counts, and the per-interval
// bit sums (flat tree order) — a point-in-time cut at run granularity.
// These are the exact integers a cluster gateway ships between nodes:
// because the estimator is a fixed linear function of them, merging raw
// sums across machines reproduces a single serial server bit for bit,
// which merging scaled float answers would not.
func (s *Sharded) Fold() (users int64, perOrder, sums []int64) {
	row := make([]int64, s.m.stride)
	s.FoldInto(nil, row)
	return SplitRaw(s.m.d, row)
}

// Columns returns the row columns holding the interval sums of a row
// scoped to periods [l..r] (nil for l = r = 0): FoldInto's column
// argument, derived once per request.
func (s *Sharded) Columns(l, r int) []int { return s.m.Columns(l, r) }

// FoldInto overwrites one raw row with the state: the header columns,
// then the interval sums at cols (as Columns returns them; nil is every
// one, RawStride(d) counters in all).
func (s *Sharded) FoldInto(cols []int, row []int64) { s.m.FoldRowsInto(0, 1, cols, row) }

// MergeRaw folds raw accumulator state — a user count, per-order user
// counts and per-interval bit sums as produced by Fold or shipped from
// another machine — into shard 0 as one run. It fails, without
// modifying the accumulator, on mismatched lengths or negative counts.
func (s *Sharded) MergeRaw(users int64, perOrder, sums []int64) error {
	if len(perOrder) != s.m.sumOff-1 {
		return fmt.Errorf("protocol: merging %d per-order counts into an accumulator with %d orders", len(perOrder), s.m.sumOff-1)
	}
	if len(sums) != s.m.tree.Size() {
		return fmt.Errorf("protocol: merging %d interval sums into an accumulator with %d intervals", len(sums), s.m.tree.Size())
	}
	return s.m.MergeRaw(slices.Concat([]int64{users}, perOrder, sums))
}

// MarshalState serializes the accumulator's state, folded across shards,
// as a kind-1 payload: row 0 through the same encoder as every matrix
// row, identical to Server.MarshalState on the folded state, so
// snapshots restore interchangeably into either type.
func (s *Sharded) MarshalState() []byte {
	row := make([]int64, s.m.stride)
	s.FoldInto(nil, row)
	return s.m.appendRow(make([]byte, 0, 16+10*len(row)), row)
}

// RestoreState folds a kind-1 payload into shard 0 as one run — call it
// on a freshly constructed accumulator to reload a snapshot.
func (s *Sharded) RestoreState(b []byte) error {
	w := s.m.Lock(0)
	defer w.Unlock()
	return w.restoreRow(0, b)
}

// MergeSharded folds a sharded accumulator's state into s, the same way
// Merge folds another serial server — a point-in-time cut of o. Both
// must have the same horizon and scale.
func (s *Server) MergeSharded(o *Sharded) {
	if o.D() != s.d || o.Scale() != s.scale {
		panic("protocol: merging incompatible servers")
	}
	if err := s.MergeRaw(o.Fold()); err != nil {
		panic(err)
	}
}
