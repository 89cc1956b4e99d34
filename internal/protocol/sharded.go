package protocol

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"rtf/internal/dyadic"
)

// Sharded is the sharded accumulator for Algorithm 2: the same
// one-counter-per-dyadic-interval state as Server, split into shards so
// that many ingestion goroutines can accumulate reports concurrently.
// Callers route by shard index (e.g. connection id modulo NumShards) so
// that concurrent writers land on distinct shards.
//
// Because ingestion only ever adds ±1 into int64 counters, addition is
// exact, commutative and associative: estimates from a Sharded
// accumulator are bit-for-bit identical to a serial Server fed the same
// reports in any order and under any shard assignment. The parallel
// simulation engine and the rtf-serve batch-ingest service are both
// built on this type, and DomainSharded — m counter rows instead of one
// — keeps the same lock discipline, written once here:
//
//   - Every shard has one sync.RWMutex and a version stamp (shardLock).
//   - A writer holds exactly one shard's write lock, for a whole run:
//     Lock returns the run's writer, whose Register and Ingest are plain
//     bounds-checked indexed adds, and the writer's Unlock bumps the
//     shard's version stamp once — after the run's writes, before the
//     lock is released — then releases it. Register, IngestSum, MergeRaw
//     and RestoreState are runs of one call each; the per-report Ingest
//     is a one-record run that leaves the stamp alone. A writer never
//     acquires a second lock.
//   - A reader takes every shard's read lock, in ascending shard order,
//     once, at its public entry point, and reads through unlocked
//     helpers: no read locks recursively, and no lock is held across I/O.
//   - Version stamps stay atomic, so Version takes no lock.
//   - An accumulator built over adopted counters (ShardedOver,
//     DomainShardedOver) has no writer and takes no lock at all.
//
// A writer waits for nothing while it holds its lock and readers
// acquire in one global order, so no cycle of waits can form. Because a
// read holds every shard's read lock for the whole operation, it sees
// each run entirely or not at all: an estimate, fold or marshal taken
// during ingest is a point-in-time cut at run granularity.
type Sharded struct {
	d      int
	scale  float64
	tree   *dyadic.Tree
	base   []int // the writers' index table, see reportBase
	cols   []int // the interval sums a shard keeps (see scopeColumns); nil on every live accumulator
	shards []accShard
	locks  shardLocks // one per shard; nil over adopted counters
}

// accShard is one shard's counters, allocated separately per shard so
// writers on different shards touch disjoint cache lines. They are
// guarded by the shard's lock.
type accShard struct {
	sums     []int64 // Σ of ±1 report bits, one per dyadic interval
	users    int64   // registered users
	perOrder []int64 // registered users per order
}

// shardLock is one shard's lock and monotone mutation counter (see
// Version), followed by a whole cache line of padding: whatever the
// slice's alignment, more than 63 bytes separate two shards' fields, so
// writers on different shards never share a line.
type shardLock struct {
	mu      sync.RWMutex
	version atomic.Int64
	_       [64]byte
}

// shardLocks is an accumulator's lock set, one entry per shard.
type shardLocks []shardLock

// rlock takes every shard's read lock in ascending shard order: the one
// acquisition a read operation makes. Over adopted counters the set is
// empty and this is a no-op.
func (l shardLocks) rlock() {
	for i := range l {
		l[i].mu.RLock()
	}
}

// runlock releases what rlock took.
func (l shardLocks) runlock() {
	for i := range l {
		l[i].mu.RUnlock()
	}
}

// index maps a shard id onto the set: in-range ids (every caller in
// practice) skip the divide; the modulo is only a fallback for oversized
// ids. An accumulator over adopted counters has no writer.
func (l shardLocks) index(i int) int {
	if uint(i) < uint(len(l)) {
		return i
	}
	if len(l) == 0 {
		panic("protocol: an accumulator built over adopted counters is read-only")
	}
	return i % len(l)
}

// version folds the per-shard stamps into one.
func (l shardLocks) version() uint64 {
	var v int64
	for i := range l {
		v += l[i].version.Load()
	}
	return uint64(v)
}

// NewSharded builds a sharded accumulator for horizon d with the given
// estimator scale and shard count (at least 1).
func NewSharded(d int, scale float64, shards int) *Sharded {
	if shards < 1 {
		panic(fmt.Sprintf("protocol: shard count %d < 1", shards))
	}
	s := newSharded(d, scale)
	s.shards = make([]accShard, shards)
	s.locks = make(shardLocks, shards)
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
	tree := dyadic.NewTree(d)
	return &Sharded{d: d, scale: scale, tree: tree, base: reportBase(tree, 0)}
}

// ShardedOver builds a read-only single-shard accumulator whose counters
// ARE the given raw row, scoped to periods [l..r] (l = r = 0: a full
// row) — the Boolean counterpart of DomainShardedOver, with the same
// contract: adopted, not copied; no writer and no lock; a read the scope
// does not cover panics; a mismatched length or a negative count is an
// error.
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

// ShardWriter is a run's hold on one shard's write lock (see Sharded):
// Register and Ingest are plain adds into that shard, Unlock ends the
// run.
type ShardWriter struct {
	s  *Sharded
	sh *accShard
	l  *shardLock
}

// Lock takes the given shard's write lock for a run of writes.
func (s *Sharded) Lock(shard int) ShardWriter {
	i := s.locks.index(shard)
	s.locks[i].mu.Lock()
	return ShardWriter{s, &s.shards[i], &s.locks[i]}
}

// Unlock ends the run: it bumps the shard's version stamp once, then
// releases the lock.
func (w ShardWriter) Unlock() {
	w.l.version.Add(1)
	w.l.mu.Unlock()
}

// Register records a user's sampled order.
func (w ShardWriter) Register(order int) {
	if uint(order) >= uint(len(w.sh.perOrder)) {
		panic(orderError(order))
	}
	w.sh.users++
	w.sh.perOrder[order]++
}

// Ingest accumulates one report: one index computation, one add.
func (w ShardWriter) Ingest(r Report) { w.sh.sums[w.s.cell(r)] += int64(r.Bit) }

// cell is where in a shard's sums report r adds: the writers' one range
// check, which panics before anything is written.
func (s *Sharded) cell(r Report) int {
	if r.Bit != 1 && r.Bit != -1 || uint(r.Order) >= uint(len(s.base)) || uint(r.J-1) >= uint(s.d>>uint(r.Order)) {
		panic(reportError{0, 1, s.d, r})
	}
	return s.base[r.Order] + r.J
}

// reportError is a writer's panic on a report it cannot place: an item
// outside [0..m) (never, from the Boolean writer), a bit other than ±1,
// an order or an index outside the tree — checked in that order, with
// the messages Ingest has always raised. It is formatted only when
// read, so raising one costs the writers next to nothing against the
// inlining budget of the run loops they sit in.
type reportError struct {
	item, m, d int
	r          Report
}

func (e reportError) Error() string {
	switch {
	case e.item < 0 || e.item >= e.m:
		return fmt.Sprintf("protocol: item %d outside [0..%d)", e.item, e.m)
	case e.r.Bit != 1 && e.r.Bit != -1:
		return fmt.Sprintf("protocol: report bit %d not ±1", e.r.Bit)
	case e.r.Order < 0 || e.r.Order > dyadic.Log2(e.d):
		return "dyadic: order out of range"
	}
	return "dyadic: index out of range"
}

// orderError is a writer's panic on a hello's out-of-range order.
type orderError int

func (e orderError) Error() string { return fmt.Sprintf("protocol: order %d out of range", int(e)) }

// reportBase returns the writers' index table: report (h, j) adds into
// column base[h] + j of a row whose interval sums start at column off.
func reportBase(tree *dyadic.Tree, off int) []int {
	base := make([]int, dyadic.NumOrders(tree.D()))
	for h := range base {
		base[h] = off + tree.FlatIndex(dyadic.Interval{Order: h, Index: 1}) - 1
	}
	return base
}

// Register records a user's sampled order into the given shard: a run
// of one.
func (s *Sharded) Register(shard, order int) {
	w := s.Lock(shard)
	defer w.Unlock()
	w.Register(order)
}

// Ingest accumulates one report into the given shard under its write
// lock, checked before the lock is taken. It is version-silent, for
// serial and test callers; a served run goes through Lock, whose Unlock
// advances the stamp once per run.
func (s *Sharded) Ingest(shard int, r Report) {
	c := s.cell(r)
	i := s.locks.index(shard)
	s.locks[i].mu.Lock()
	s.shards[i].sums[c] += int64(r.Bit)
	s.locks[i].mu.Unlock()
}

// IngestSum adds a pre-aggregated sum of ±1 bits for one interval into
// the given shard: a run of one.
func (s *Sharded) IngestSum(shard int, iv dyadic.Interval, sum int64) {
	w := s.Lock(shard)
	defer w.Unlock()
	w.sh.sums[s.tree.FlatIndex(iv)] += sum
}

// Version folds the per-shard mutation counters into one monotone
// stamp. Each component only grows, so the sum observed by a reader can
// only grow; if two Version calls bracketing a derived computation
// return the same value, no run (Register/IngestSum/MergeRaw/
// RestoreState/a Lock…Unlock run) completed in between, and the derived
// result may be served again verbatim.
func (s *Sharded) Version() uint64 { return s.locks.version() }

// Users returns the number of registered users across all shards.
func (s *Sharded) Users() int {
	s.locks.rlock()
	defer s.locks.runlock()
	var n int64
	for i := range s.shards {
		n += s.shards[i].users
	}
	return int(n)
}

// intervalSum folds one interval's counter across shards. Pure int64
// addition, so the result is independent of shard assignment. The
// caller holds the read locks.
func (s *Sharded) intervalSum(flat int) int64 {
	if s.cols != nil {
		flat = sumAt(s.cols, flat)
	}
	var sum int64
	for i := range s.shards {
		sum += s.shards[i].sums[flat]
	}
	return sum
}

// EstimateAt returns â[t] via the dyadic decomposition C(t), reading the
// live counters, with the per-interval totals summed in the same
// decomposition order as Server.EstimateAt, so it agrees with the
// serial server fed the same runs bit for bit.
func (s *Sharded) EstimateAt(t int) float64 {
	s.locks.rlock()
	defer s.locks.runlock()
	var est float64
	for _, iv := range dyadic.Decompose(t, s.d) {
		est += s.scale * float64(s.intervalSum(s.tree.FlatIndex(iv)))
	}
	return est
}

// EstimateSeries returns â[1..d] from the live counters, with the same
// prefix recurrence and float addition order as Server.EstimateSeries.
func (s *Sharded) EstimateSeries() []float64 {
	return s.EstimateSeriesTo(s.d)
}

// EstimateSeriesTo returns â[1..r]. The prefix recurrence at t only
// reads earlier entries, so the truncated series is bit-for-bit a
// prefix of EstimateSeries — the window-query path of the ingest server
// relies on this. A live accumulator's interval sums are folded under
// the read locks (FoldInto) and the recurrence runs outside them
// (PrefixSeries).
func (s *Sharded) EstimateSeriesTo(r int) []float64 {
	if r < 1 || r > s.d {
		panic(fmt.Sprintf("protocol: series bound %d out of range [1..%d]", r, s.d))
	}
	if s.cols != nil {
		panic("protocol: a series reads every interval sum, outside the scope this state was built over")
	}
	sums := s.shards[0].sums // adopted counters: one shard, immutable
	if s.locks != nil {
		row := make([]int64, RawStride(s.d))
		s.FoldInto(nil, row)
		_, _, sums = SplitRaw(s.d, row)
	}
	out := make([]float64, r)
	s.PrefixSeries(sums, out)
	return out
}

// PrefixSeries is the series kernel: it writes â[1..len(out)] into out
// from interval sums in flat tree order — the sums of a full raw row, as
// FoldInto writes them. It reads only its arguments, so a caller folds
// under the read locks and runs it outside them; its float operations
// are Server.EstimateSeriesTo's, in the same order.
func (s *Sharded) PrefixSeries(sums []int64, out []float64) {
	if len(sums) != s.tree.Size() || len(out) > s.d {
		panic(fmt.Sprintf("protocol: series of %d from %d interval sums at d=%d", len(out), len(sums), s.d))
	}
	prefixSeries(s.tree, s.scale, sums, out)
}

// prefixSeries is the recurrence â[t] = Ŝ(I_{h, t/2^h}) + â[t − 2^h],
// 2^h the lowest set bit of t, over interval sums in flat tree order.
// Each entry equals EstimateAt's sum over C(t) bit for bit: C(t) is
// C(t − 2^h) plus that interval, and the two sums differ only by the
// order of operands of one commutative float addition.
func prefixSeries(tree *dyadic.Tree, scale float64, sums []int64, out []float64) {
	for t := 1; t <= len(out); t++ {
		h := bits.TrailingZeros(uint(t))
		est := scale * float64(sums[tree.FlatIndex(dyadic.Interval{Order: h, Index: t >> uint(h)})])
		if prev := t - 1<<h; prev > 0 {
			est += out[prev-1]
		}
		out[t-1] = est
	}
}

// EstimateChange returns the unbiased estimate of a[r] − a[l−1] over the
// direct dyadic cover of [l..r], mirroring Server.EstimateChange on the
// live counters.
func (s *Sharded) EstimateChange(l, r int) float64 {
	s.locks.rlock()
	defer s.locks.runlock()
	var est float64
	for _, iv := range dyadic.DecomposeRange(l, r, s.d) {
		est += s.scale * float64(s.intervalSum(s.tree.FlatIndex(iv)))
	}
	return est
}

// Fold returns the accumulator's raw state summed across shards: the
// registered-user count, the per-order user counts, and the per-interval
// bit sums (flat tree order) — a point-in-time cut at run granularity.
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
	s.locks.rlock()
	defer s.locks.runlock()
	for i := range s.shards {
		sh := &s.shards[i]
		row[0] += sh.users
		for h, c := range sh.perOrder {
			perOrder[h] += c
		}
		if cols == nil {
			for f, v := range sh.sums {
				sums[f] += v
			}
		}
		for j, f := range cols {
			sums[j] += sh.sums[f]
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
	if len(perOrder) != dyadic.NumOrders(s.d) {
		return fmt.Errorf("protocol: merging %d per-order counts into an accumulator with %d orders", len(perOrder), dyadic.NumOrders(s.d))
	}
	if len(sums) != s.tree.Size() {
		return fmt.Errorf("protocol: merging %d interval sums into an accumulator with %d intervals", len(sums), s.tree.Size())
	}
	if err := checkCounts(users, perOrder); err != nil {
		return err
	}
	w := s.Lock(0)
	defer w.Unlock()
	w.sh.add(users, perOrder, sums)
	return nil
}

// add folds raw state into the shard; its writer holds the lock.
func (sh *accShard) add(users int64, perOrder, sums []int64) {
	for f, v := range sums {
		sh.sums[f] += v
	}
	sh.users += users
	for h, c := range perOrder {
		sh.perOrder[h] += c
	}
}

// Snapshot folds the current shard state into a fresh serial Server,
// from which the full estimate series, range estimates and consistency
// post-processing are available.
func (s *Sharded) Snapshot() *Server {
	srv := NewServer(s.d, s.scale)
	srv.MergeSharded(s)
	return srv
}

// MergeSharded folds a sharded accumulator's state into s, the same way
// Merge folds another serial server — a point-in-time cut of o. Both
// must have the same horizon and scale.
func (s *Server) MergeSharded(o *Sharded) {
	if o.d != s.d || o.scale != s.scale {
		panic("protocol: merging incompatible servers")
	}
	o.locks.rlock()
	defer o.locks.runlock()
	for i := range o.shards {
		sh := &o.shards[i]
		for flat, v := range sh.sums {
			s.sums[flat] += v
		}
		s.users += int(sh.users)
		for h, c := range sh.perOrder {
			s.perOrder[h] += int(c)
		}
	}
}
