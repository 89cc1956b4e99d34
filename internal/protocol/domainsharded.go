package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"rtf/internal/dyadic"
)

// RawStride is the length of one row of a raw counter matrix at horizon
// d: the row's registered-user count, its per-order user counts, then
// its per-interval bit sums in flat dyadic-tree order. It is the layout
// of a DomainSharded shard and of the raw-sums frames cluster nodes
// exchange, so counters move between the two without being rearranged.
func RawStride(d int) int { return 1 + dyadic.NumOrders(d) + dyadic.TotalIntervals(d) }

// SplitRaw returns the three parts of one raw row at horizon d. The
// slices alias row.
func SplitRaw(d int, row []int64) (users int64, perOrder, sums []int64) {
	off := 1 + dyadic.NumOrders(d)
	return row[0], row[1:off:off], row[off:]
}

// A raw row can be restricted to a scope: the periods [l..r] a read will
// be evaluated over (a point or top-k estimate at t is [1..t], a change
// is [l..r]). A scoped row keeps the header columns — user and per-order
// counts — and, of the 2d−1 interval sums, only those of the range's
// dyadic cover, in cover order: the at most 2·log₂ d counters the
// estimators read. l = r = 0 is no scope, every column.

// ScopedStride is the length of a raw row scoped to periods [l..r].
func ScopedStride(d, l, r int) int {
	if l == 0 && r == 0 {
		return RawStride(d)
	}
	var buf [dyadic.MaxCover]dyadic.Interval
	return 1 + dyadic.NumOrders(d) + len(dyadic.AppendDecomposeRange(buf[:0], l, r, d))
}

// scopeColumns returns the flat tree indexes of the interval sums a row
// scoped to [l..r] keeps, in row order; nil is every column.
func scopeColumns(tree *dyadic.Tree, l, r int) []int {
	if l == 0 && r == 0 {
		return nil
	}
	ivs := dyadic.DecomposeRange(l, r, tree.D())
	cols := make([]int, len(ivs))
	for i, iv := range ivs {
		cols[i] = tree.FlatIndex(iv)
	}
	return cols
}

// sumAt returns where interval sum flat sits among the sums of a scoped
// row that keeps cols. Asking a scoped state for a counter it was not
// gathered with is a bug upstream, never a zero.
func sumAt(cols []int, flat int) int {
	for i, f := range cols {
		if f == flat {
			return i
		}
	}
	panic(fmt.Sprintf("protocol: interval sum %d is outside the scope this state was built over", flat))
}

// DomainSharded is the accumulator of Algorithm 2's server: one integer
// counter per dyadic interval, for each of m ≥ 1 rows. A row is one
// dyadic accumulator; the Boolean protocol is one row (Sharded is that
// view) and domain-valued tracking is one row per item. The counters
// are one contiguous row-major [m × RawStride(d)] int64 matrix per
// shard, so a report lands with a single index computation —
// item·stride + flat — and one plain add under the run's shard lock,
// and whole-domain sweeps (fold, merge, the top-k estimate pass) walk
// flat rows in item-major order.
//
// Because ingestion only ever adds into int64 counters, addition is
// exact, commutative and associative: every row's estimates are
// bit-for-bit identical to a serial Server fed that row's reports in any
// order and under any shard assignment, and FoldRowsInto/MergeRaw ship
// the same raw integers a cluster gateway exchanges between nodes.
// Callers route by shard index so that concurrent writers land on
// distinct shards (a served connection writes to the lowest shard slot
// no other live connection holds). A shard's matrix is allocated the
// first time a writer takes it, and reads fold only the shards that have
// one: a never-written shard would only add exact zeros, so neither
// estimates nor bytes depend on how many shards were written, and read
// cost and memory follow the shards writers use, not the shard count.
// The lock discipline, written once here:
//
//   - Every shard has one sync.RWMutex and a version stamp (shardLock).
//   - A writer holds exactly one shard's write lock, for a whole run:
//     Lock returns the run's writer, whose Register and Ingest are plain
//     bounds-checked indexed adds, and the writer's Unlock bumps the
//     shard's version stamp once — after the run's writes, before the
//     lock is released — then releases it. Register, MergeRaw,
//     RestoreState and ReplaceShard (and Sharded's IngestSum) are runs
//     of one call each; the per-report Ingest is a one-record run that
//     leaves the stamp alone. A writer never acquires a second lock.
//   - A reader takes every shard's read lock, in ascending shard order
//     (a per-shard read, FoldShardInto or MarshalShard, that shard's
//     alone), once, at its public entry point, and reads through
//     unlocked helpers: no read locks recursively, and no lock is held
//     across I/O. A series read folds its rows under the locks and runs the
//     prefix recurrence after releasing them.
//   - Version stamps stay atomic, so Version takes no lock.
//   - An accumulator built over adopted counters (DomainShardedOver,
//     ShardedOver) has no writer and takes no lock at all.
//
// A writer waits for nothing while it holds its lock and readers
// acquire in one global order, so no cycle of waits can form. Because a
// read holds every shard's read lock for the whole operation, it sees
// each run entirely or not at all: an estimate, fold or marshal taken
// during ingest is a point-in-time cut at run granularity.
//
// It panics on out-of-range items, orders and bits; the hh, ldp and
// transport layers validate at their boundaries.
type DomainSharded struct {
	d, m   int
	scale  float64
	tree   *dyadic.Tree
	base   []int // the writers' index table, see reportBase
	stride int   // counters per item row: RawStride(d), less under a scope
	sumOff int   // offset of the interval sums inside a row
	cols   []int // the interval sums a row keeps (see scopeColumns); nil on every live accumulator
	// shards holds one counter matrix per shard, allocated separately so
	// writers on different shards touch disjoint cache lines; item x's
	// counters are the row [x·stride : (x+1)·stride] in RawStride layout.
	// A shard's matrix is nil until its first writer allocates it, under
	// the shard's write lock; readers skip nil matrices under the read
	// locks.
	shards    [][]int64
	locks     shardLocks   // one per shard; nil over adopted counters
	allocated atomic.Int32 // shards with a matrix, read without a lock by Resident
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

// NewDomainSharded builds an accumulator for horizon d (a power of two)
// with m rows (at least 1), the given per-row estimator scale and shard
// count (at least 1; shard assignment never affects estimates). No
// shard has a matrix yet: each gets one from its first writer.
func NewDomainSharded(d, m int, scale float64, shards int) *DomainSharded {
	if shards < 1 {
		panic(fmt.Sprintf("protocol: shard count %d < 1", shards))
	}
	s := newDomainSharded(d, m, scale)
	s.shards = make([][]int64, shards)
	s.locks = make(shardLocks, shards)
	return s
}

// DomainShardedOver builds a read-only single-shard accumulator whose
// counters ARE the given raw matrix — m rows scoped to periods [l..r]
// (l = r = 0: full rows), as FoldRowsInto exports and cluster nodes
// exchange: the slice is adopted, not copied, so the caller must not
// touch it afterwards. It has no writer, so its reads take no lock. A
// gateway builds the state it answers a gather from this way, straight
// over the merged frames; under a scope it answers the reads that scope
// covers and panics on any other counter. It fails on a mismatched
// length or a negative count.
func DomainShardedOver(d, m int, scale float64, l, r int, cells []int64) (*DomainSharded, error) {
	s := newDomainSharded(d, m, scale)
	if s.cols = scopeColumns(s.tree, l, r); s.cols != nil {
		s.stride = s.sumOff + len(s.cols)
	}
	if err := s.checkRaw(cells); err != nil {
		return nil, err
	}
	s.shards = [][]int64{cells}
	s.allocated.Store(1)
	return s, nil
}

func newDomainSharded(d, m int, scale float64) *DomainSharded {
	if !dyadic.IsPow2(d) {
		panic(fmt.Sprintf("protocol: d=%d not a power of two", d))
	}
	if m < 1 {
		panic(fmt.Sprintf("protocol: row count m=%d must be at least 1", m))
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		panic(fmt.Sprintf("protocol: invalid estimator scale %v", scale))
	}
	tree, sumOff := dyadic.NewTree(d), 1+dyadic.NumOrders(d)
	return &DomainSharded{
		d: d, m: m, scale: scale, tree: tree, base: reportBase(tree, sumOff),
		stride: RawStride(d), sumOff: sumOff,
	}
}

func (s *DomainSharded) checkItem(item int) {
	if item < 0 || item >= s.m {
		panic(fmt.Sprintf("protocol: item %d outside [0..%d)", item, s.m))
	}
}

// DomainWriter is a run's hold on one shard's write lock (see
// DomainSharded): Register and Ingest are plain adds into that shard's
// matrix, Unlock ends the run.
type DomainWriter struct {
	s     *DomainSharded
	cells []int64
	l     *shardLock
}

// Lock takes the given shard's write lock for a run of writes,
// allocating the shard's matrix if this is its first writer.
func (s *DomainSharded) Lock(shard int) DomainWriter {
	i := s.locks.index(shard)
	s.locks[i].mu.Lock()
	return DomainWriter{s, s.matrix(i), &s.locks[i]}
}

// matrix returns shard i's counters, allocating them on the shard's
// first write. The caller holds shard i's write lock.
func (s *DomainSharded) matrix(i int) []int64 {
	if s.shards[i] == nil {
		s.shards[i] = make([]int64, s.m*s.stride)
		s.allocated.Add(1)
	}
	return s.shards[i]
}

// Resident reports how many shards have a counter matrix and the bytes
// those matrices hold. It takes no lock.
func (s *DomainSharded) Resident() (shards int, bytes int64) {
	n := int(s.allocated.Load())
	return n, int64(n) * int64(s.m*s.stride) * 8
}

// Unlock ends the run: it bumps the shard's version stamp once, then
// releases the lock.
func (w DomainWriter) Unlock() {
	w.l.version.Add(1)
	w.l.mu.Unlock()
}

// Register records a user's announced (item, order) pair.
func (w DomainWriter) Register(item, order int) {
	s := w.s
	if uint(item) >= uint(s.m) {
		panic(reportError{item: item, m: s.m})
	}
	if uint(order) >= uint(s.sumOff-1) {
		panic(orderError(order))
	}
	row := w.cells[item*s.stride:]
	row[0]++
	row[1+order]++
}

// Ingest accumulates one report for the given item: one index
// computation, one add, inlined into the collector run loops.
func (w DomainWriter) Ingest(item int, r Report) { w.cells[w.s.cell(item, r)] += int64(r.Bit) }

// cell is where in a shard's matrix report r for item adds: the
// writers' one range check, which panics before anything is written.
func (s *DomainSharded) cell(item int, r Report) int {
	if uint(item) >= uint(s.m) || r.Bit != 1 && r.Bit != -1 || uint(r.Order) >= uint(len(s.base)) || uint(r.J-1) >= uint(s.d>>uint(r.Order)) {
		panic(reportError{item, s.m, s.d, r})
	}
	return item*s.stride + s.base[r.Order] + r.J
}

// reportError is a writer's panic on a report it cannot place: an item
// outside [0..m), a bit other than ±1, an order or an index outside the
// tree — checked in that order, with the messages Ingest has always
// raised. It is formatted only when read, so raising one costs the
// writers next to nothing against the inlining budget of the run loops
// they sit in.
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

// Register records a user's announced (item, order) pair into the given
// shard: a run of one.
func (s *DomainSharded) Register(shard, item, order int) {
	w := s.Lock(shard)
	defer w.Unlock()
	w.Register(item, order)
}

// Ingest accumulates one report for the given item into the given
// shard under its write lock, checked before the lock is taken. It is
// version-silent, for serial and test callers; a served run goes
// through Lock, whose Unlock advances the stamp once per run.
func (s *DomainSharded) Ingest(shard, item int, r Report) {
	c := s.cell(item, r)
	i := s.locks.index(shard)
	s.locks[i].mu.Lock()
	s.matrix(i)[c] += int64(r.Bit)
	s.locks[i].mu.Unlock()
}

// AdvanceVersion bumps the given shard's mutation counter without a
// lock. Ingest is version-silent, so a caller of it whose writes must
// reach version-stamped caches advances once after them.
func (s *DomainSharded) AdvanceVersion(shard int) {
	s.locks[s.locks.index(shard)].version.Add(1)
}

// Version folds the per-shard mutation counters into one monotone
// stamp. Each component only grows, so the sum observed by a reader can
// only grow; if two Version calls bracketing a derived computation
// return the same value, no run (Register/MergeRaw/RestoreState/
// ReplaceShard/a Lock…Unlock run) and no AdvanceVersion completed in
// between, and the derived result may be served again verbatim.
func (s *DomainSharded) Version() uint64 {
	var v int64
	for i := range s.locks {
		v += s.locks[i].version.Load()
	}
	return uint64(v)
}

// Users returns the number of registered users across all items.
func (s *DomainSharded) Users() int {
	s.locks.rlock()
	defer s.locks.runlock()
	var n int64
	for x := 0; x < s.m; x++ {
		n += s.itemCell(x, 0)
	}
	return int(n)
}

// itemCell folds one counter of one item's row across the written
// shards. Pure int64 addition, so the result is independent of shard
// assignment. The caller holds the read locks.
func (s *DomainSharded) itemCell(item, col int) int64 {
	var sum int64
	off := item*s.stride + col
	for _, cells := range s.shards {
		if cells != nil {
			sum += cells[off]
		}
	}
	return sum
}

// only returns the one written shard's matrix when exactly one shard
// has been written, nil otherwise. The caller holds the read locks.
func (s *DomainSharded) only() []int64 {
	var one []int64
	for _, cells := range s.shards {
		if cells != nil {
			if one != nil {
				return nil
			}
			one = cells
		}
	}
	return one
}

// sumCol is the row column holding interval sum flat.
func (s *DomainSharded) sumCol(flat int) int {
	if s.cols != nil {
		flat = sumAt(s.cols, flat)
	}
	return s.sumOff + flat
}

// EstimateAt returns item's â[t] via the dyadic decomposition C(t),
// reading the live counters, with the per-interval totals summed in the
// same decomposition order as Server.EstimateAt, so it agrees with a
// serial server fed the item's reports bit for bit.
func (s *DomainSharded) EstimateAt(item, t int) float64 {
	s.checkItem(item)
	var buf [dyadic.MaxCover]dyadic.Interval
	return s.estimate(item, dyadic.AppendDecompose(buf[:0], t, s.d))
}

// estimate sums item's scaled interval totals over a cover, in cover
// order.
func (s *DomainSharded) estimate(item int, cover []dyadic.Interval) float64 {
	s.locks.rlock()
	defer s.locks.runlock()
	var est float64
	for _, iv := range cover {
		est += s.scale * float64(s.itemCell(item, s.sumCol(s.tree.FlatIndex(iv))))
	}
	return est
}

// EstimateAllAtInto writes every item's â[t] into est in one item-major
// sweep over the flat counter rows. For each decomposition interval the
// per-item cross-shard integer sums are folded first, then scaled and
// accumulated — the identical float operations, in the identical order,
// as calling EstimateAt once per item, so the two are bit-for-bit equal.
// When one shard has been written its counters are those sums, and the
// sweep scales them straight into est without the integer pass.
// est and tmp must both have length m (est is overwritten, tmp is
// scratch). It returns est. The memoized read path in internal/hh uses
// the caller-owned buffers to keep repeated sweeps allocation-free.
func (s *DomainSharded) EstimateAllAtInto(est []float64, tmp []int64, t int) []float64 {
	if t < 1 || t > s.d {
		panic(fmt.Sprintf("protocol: time %d out of range [1..%d]", t, s.d))
	}
	if len(est) != s.m || len(tmp) != s.m {
		panic(fmt.Sprintf("protocol: estimate buffers of length %d/%d for domain size %d", len(est), len(tmp), s.m))
	}
	for x := range est {
		est[x] = 0
	}
	var buf [dyadic.MaxCover]dyadic.Interval
	cover := dyadic.AppendDecompose(buf[:0], t, s.d)
	s.locks.rlock()
	defer s.locks.runlock()
	if one := s.only(); one != nil {
		for _, iv := range cover {
			col := s.sumCol(s.tree.FlatIndex(iv))
			for x := 0; x < s.m; x++ {
				est[x] += s.scale * float64(one[x*s.stride+col])
			}
		}
		return est
	}
	for _, iv := range cover {
		col := s.sumCol(s.tree.FlatIndex(iv))
		for x := range tmp {
			tmp[x] = 0
		}
		for _, cells := range s.shards {
			if cells == nil {
				continue
			}
			for x := 0; x < s.m; x++ {
				tmp[x] += cells[x*s.stride+col]
			}
		}
		for x := 0; x < s.m; x++ {
			est[x] += s.scale * float64(tmp[x])
		}
	}
	return est
}

// EstimateSeriesTo returns item's â[1..r] with the same prefix
// recurrence and float addition order as Server.EstimateSeriesTo. The
// recurrence at t only reads earlier entries, so the truncated series is
// bit-for-bit a prefix of EstimateSeries — the window-query path of the
// ingest server relies on this.
func (s *DomainSharded) EstimateSeriesTo(item, r int) []float64 {
	s.checkItem(item)
	if r < 1 || r > s.d {
		panic(fmt.Sprintf("protocol: series bound %d out of range [1..%d]", r, s.d))
	}
	out := make([]float64, r)
	s.SeriesInto(item, nil, out)
	return out
}

// SeriesInto writes item's â[1..len(out)] into out, bit-for-bit
// EstimateSeriesTo(item, len(out)), folding the item's row into row: the
// caller's scratch of RawStride(d) counters, allocated here when it is
// any other length. An accumulator over adopted counters reads its own
// row and leaves row alone.
func (s *DomainSharded) SeriesInto(item int, row []int64, out []float64) {
	s.checkItem(item)
	if len(out) > s.d {
		panic(fmt.Sprintf("protocol: series of %d periods at d=%d", len(out), s.d))
	}
	_, _, sums := SplitRaw(s.d, s.cut(item, item+1, row))
	prefixSeries(s.tree, s.scale, sums, out)
}

// EstimateAllSeries returns every item's â[1..d], row by row, from one
// point-in-time cut: each bit-for-bit EstimateSeries of its item.
func (s *DomainSharded) EstimateAllSeries() [][]float64 {
	rows := s.cut(0, s.m, nil)
	out := make([][]float64, s.m)
	for x := range out {
		_, _, sums := SplitRaw(s.d, rows[x*s.stride:(x+1)*s.stride])
		out[x] = make([]float64, s.d)
		prefixSeries(s.tree, s.scale, sums, out[x])
	}
	return out
}

// cut returns the full rows [lo, hi) summed across shards, one
// point-in-time cut: folded under the read locks into rows (allocated
// unless it holds exactly those rows) on a live accumulator, the adopted
// counters themselves otherwise. A series reads every interval sum,
// which a scoped state does not have.
func (s *DomainSharded) cut(lo, hi int, rows []int64) []int64 {
	if s.cols != nil {
		panic("protocol: a series reads every interval sum, outside the scope this state was built over")
	}
	if s.locks == nil {
		return s.shards[0][lo*s.stride : hi*s.stride]
	}
	if len(rows) != (hi-lo)*s.stride {
		rows = make([]int64, (hi-lo)*s.stride)
	}
	s.FoldRowsInto(lo, hi, nil, rows)
	return rows
}

// prefixSeries is the series kernel, the recurrence
// â[t] = Ŝ(I_{h, t/2^h}) + â[t − 2^h], 2^h the lowest set bit of t, over
// interval sums in flat tree order. Each entry equals EstimateAt's sum
// over C(t) bit for bit: C(t) is C(t − 2^h) plus that interval, and the
// two sums differ only by the order of operands of one commutative
// float addition.
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

// Columns returns the row columns holding the interval sums of a row
// scoped to periods [l..r], in that row's order (nil for l = r = 0):
// derived once per request, then handed to FoldRowsInto.
func (s *DomainSharded) Columns(l, r int) []int {
	cols := scopeColumns(s.tree, l, r)
	for i, flat := range cols {
		cols[i] = s.sumCol(flat)
	}
	return cols
}

// FoldRowsInto overwrites dst with the raw accumulator state of items
// [lo, hi) summed across shards — the exact integers a cluster gateway
// ships between nodes, one row per item: the header columns, then the
// interval sums at cols (as Columns returns them; nil is every column,
// RawStride(d) counters a row). The rows are one point-in-time cut.
func (s *DomainSharded) FoldRowsInto(lo, hi int, cols []int, dst []int64) {
	if lo < 0 || hi > s.m || lo > hi {
		panic(fmt.Sprintf("protocol: item rows [%d, %d) outside [0..%d)", lo, hi, s.m))
	}
	n := s.stride
	if cols != nil {
		n = s.sumOff + len(cols)
	}
	if len(dst) != (hi-lo)*n {
		panic(fmt.Sprintf("protocol: folding %d rows of %d into %d counters", hi-lo, n, len(dst)))
	}
	s.locks.rlock()
	defer s.locks.runlock()
	for x := lo; x < hi; x++ {
		s.foldRow(x, cols, dst[(x-lo)*n:(x-lo+1)*n])
	}
}

// foldRow overwrites row with item's fold over the written shards (all
// zeros when none has been). The caller holds the read locks.
func (s *DomainSharded) foldRow(item int, cols []int, row []int64) {
	head := row[:s.sumOff]
	if cols == nil {
		head = row[:s.stride]
	}
	sums := row[len(head) : len(head)+len(cols)]
	first := true
	for _, all := range s.shards {
		if all == nil {
			continue
		}
		cells := all[item*s.stride : (item+1)*s.stride]
		if first {
			first = false
			copy(head, cells)
			for j, c := range cols {
				sums[j] = cells[c]
			}
			continue
		}
		for j := range head {
			head[j] += cells[j]
		}
		for j, c := range cols {
			sums[j] += cells[c]
		}
	}
	if first {
		clear(head)
		clear(sums)
	}
}

// shard is a read-only view of counter shard i alone — its matrix slot
// and lock, shared with s — for the per-shard reads a membership
// backend makes, whose virtual shards are its counter shards.
func (s *DomainSharded) shard(i int) *DomainSharded {
	i = s.locks.index(i)
	return &DomainSharded{d: s.d, m: s.m, scale: s.scale, tree: s.tree, base: s.base, stride: s.stride, sumOff: s.sumOff,
		shards: s.shards[i : i+1 : i+1], locks: s.locks[i : i+1 : i+1]}
}

// FoldShardInto is FoldRowsInto over counter shard i alone.
func (s *DomainSharded) FoldShardInto(shard, lo, hi int, cols []int, dst []int64) {
	s.shard(shard).FoldRowsInto(lo, hi, cols, dst)
}

// MarshalShard is a one-shard accumulator's MarshalState of counter shard i.
func (s *DomainSharded) MarshalShard(shard int) []byte { return s.shard(shard).MarshalState() }

// ReplaceShard replaces counter shard i's counters with a kind-3
// payload's (see replace).
func (s *DomainSharded) ReplaceShard(shard int, b []byte) error {
	return s.replace(shard, (*DomainSharded).RestoreState, b)
}

// replace restores b into a fresh one-shard accumulator, so that on an
// error nothing changes, and swaps its matrix in as shard i's as one run:
// under the write lock, and advancing the version stamp memos key on.
func (s *DomainSharded) replace(shard int, restore func(*DomainSharded, []byte) error, b []byte) error {
	fresh := NewDomainSharded(s.d, s.m, s.scale, 1)
	if err := restore(fresh, b); err != nil {
		return err
	}
	i := s.locks.index(shard)
	s.locks[i].mu.Lock()
	if s.shards[i] == nil {
		s.allocated.Add(1)
	}
	s.shards[i] = fresh.shards[0]
	s.locks[i].version.Add(1)
	s.locks[i].mu.Unlock()
	return nil
}

// checkRaw validates a raw matrix against the accumulator's shape: the
// length, and no negative user or per-order count in any row.
func (s *DomainSharded) checkRaw(cells []int64) error {
	if len(cells) != s.m*s.stride {
		return fmt.Errorf("protocol: raw matrix of %d counters for an accumulator with %d (m=%d rows of %d)", len(cells), s.m*s.stride, s.m, s.stride)
	}
	for x := 0; x < s.m; x++ {
		users, perOrder, _ := SplitRaw(s.d, cells[x*s.stride:(x+1)*s.stride])
		if users < 0 {
			return fmt.Errorf("protocol: item %d: merging negative user count %d", x, users)
		}
		for h, c := range perOrder {
			if c < 0 {
				return fmt.Errorf("protocol: item %d: merging negative count %d at order %d", x, c, h)
			}
		}
	}
	return nil
}

// MergeRaw folds a raw matrix — as produced by FoldInto, possibly on
// another machine — into shard 0 as one run. Shard assignment never
// affects estimates (addition is exact and commutative), so merging
// into one shard is equivalent to replaying the original ingestion. It
// fails, without modifying the accumulator, on a mismatched length or
// negative counts.
func (s *DomainSharded) MergeRaw(cells []int64) error {
	if err := s.checkRaw(cells); err != nil {
		return err
	}
	w := s.Lock(0)
	defer w.Unlock()
	for j, v := range cells {
		w.cells[j] += v
	}
	return nil
}

// MarshalState serializes the whole matrix as a kind-3 domain payload:
// a domain header (kind, item count) followed by each row's kind-1
// dyadic state, length-prefixed — byte-for-byte what per-item serial
// Servers fed the same reports marshal to under that header
// (TestDomainShardedMatchesPerItemLayout pins it against the
// MarshalDomainState oracle). The payload is one
// point-in-time cut at run granularity; the durable collector pairs it
// with its WAL cursor by holding its snapshot lock.
func (s *DomainSharded) MarshalState() []byte {
	b := make([]byte, 0, 16+s.m*(16+10*s.stride))
	b = append(b, stateVersion, stateKindDomain)
	b = binary.AppendUvarint(b, uint64(s.m))
	row := make([]int64, s.stride)
	item := make([]byte, 0, 16+10*s.stride)
	s.locks.rlock()
	defer s.locks.runlock()
	for x := 0; x < s.m; x++ {
		s.foldRow(x, nil, row)
		item = s.appendRow(item[:0], row)
		b = binary.AppendUvarint(b, uint64(len(item)))
		b = append(b, item...)
	}
	return b
}

// appendRow appends one folded row as a kind-1 dyadic payload.
func (s *DomainSharded) appendRow(b []byte, row []int64) []byte {
	users, perOrder, sums := SplitRaw(s.d, row)
	return appendDyadicState(b, s.d, s.scale, users, perOrder, sums)
}

// RestoreState folds a kind-3 domain payload (MarshalState, or the same
// framing over per-item servers' states) into the matrix as one run
// — call it on a freshly constructed accumulator to reload a snapshot.
// The payload's item count, horizon and per-item scale must all match;
// on any error nothing past the failing item is modified.
func (s *DomainSharded) RestoreState(b []byte) error {
	r, err := readDomainHeader(b, s.m)
	if err != nil {
		return err
	}
	w := s.Lock(0)
	defer w.Unlock()
	for x := 0; x < s.m; x++ {
		payload, err := r.item(x)
		if err != nil {
			return err
		}
		if err := w.restoreRow(x, payload); err != nil {
			return fmt.Errorf("protocol: item %d: %w", x, err)
		}
	}
	return r.end()
}

// restoreRow decodes a kind-1 dyadic payload and adds it into row x of
// the writer's shard: the one row restore behind both payload kinds.
func (w DomainWriter) restoreRow(x int, b []byte) error {
	s := w.s
	st, err := decodeDyadicState(b, s.d, s.scale)
	if err != nil {
		return err
	}
	row := w.cells[x*s.stride : (x+1)*s.stride]
	row[0] += st.users
	for h, c := range st.perOrder {
		row[1+h] += c
	}
	for f, v := range st.sums {
		row[s.sumOff+f] += v
	}
	return nil
}
