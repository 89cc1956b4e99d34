// Package hh extends the Boolean protocol to frequency estimation over a
// finite domain [m], the "richer domains via existing techniques"
// adaptation mentioned in the paper's introduction (Section 1).
//
// Reduction: each user samples a target item x_u ∈ [m] uniformly at
// random (data-independently, so announcing it costs no privacy, exactly
// like the order h_u). The user then tracks the derived Boolean stream
// b_u[t] = 1{v_u[t] = x_u}, which changes at most as often as the value
// stream (each value change toggles the indicator at most once, and the
// initial assignment corresponds to the Boolean convention st[0] = 0).
// The server partitions users by target item, runs one instance of the
// Boolean protocol per item, and multiplies each estimate by m:
//
//	E[ m·â_x(t) ] = m·Σ_u Pr[x_u = x]·1{v_u[t] = x} = f(x, t).
//
// The per-item error grows by √m relative to the Boolean protocol with
// all n users (each sub-protocol has ≈ n/m users and the estimate is
// scaled by m), which experiment E16 measures.
//
// How items map onto server rows is data, a DomainEncoding (encoding.go):
// the exact encoding is the identity above; the loloha encoding hashes
// the catalogue to g bucket rows and decodes them back into items. The
// package provides the streaming halves of the reduction for both —
// DomainClient wraps any Boolean streaming client behind the Observer
// shape and feeds it 1{enc.Row(v_u[t]) = row}; DomainServer routes
// row-tagged reports into a single flat counter matrix
// (protocol.DomainSharded: the counters of the rows' dyadic accumulators
// in one contiguous [rows × intervals] array per shard, one index
// computation and one plain add per report, one shard lock per run);
// Items is what queries read, the DomainServer itself under the exact
// encoding and a HashedDomainServer decoder over it under loloha
// (ItemsOver) — plus the domain workload model and the Zipf generator.
// The public entry points (tagged wire frames, mechanism selection,
// validation) live in the ldp and transport packages; this package is
// the engine.
package hh

import (
	"fmt"
	"math"

	"rtf/internal/dyadic"
	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// ValueChange sets a user's value at time T (1-based). The first change
// is the initial assignment.
type ValueChange struct {
	T     int
	Value int
}

// DomainStream is one user's value history over [m], as a sorted change
// list. Before the first change the user has no value (contributes to no
// item's frequency).
type DomainStream struct {
	Changes []ValueChange
}

// ValueAt returns the user's value at time t, or −1 if unset.
func (s DomainStream) ValueAt(t int) int {
	v := -1
	for _, c := range s.Changes {
		if c.T > t {
			break
		}
		v = c.Value
	}
	return v
}

// Values expands the change list into the per-period value series over
// [1..d] (−1 while unset) — the input shape a streaming DomainClient
// consumes one period at a time.
func (s DomainStream) Values(d int) []int {
	out := make([]int, d)
	v, i := -1, 0
	for t := 1; t <= d; t++ {
		for i < len(s.Changes) && s.Changes[i].T <= t {
			v = s.Changes[i].Value
			i++
		}
		out[t-1] = v
	}
	return out
}

// NumChanges returns the number of value changes (including the initial
// assignment), which bounds the derived Boolean stream's change count.
func (s DomainStream) NumChanges() int { return len(s.Changes) }

// DomainWorkload is a complete domain-valued dataset.
type DomainWorkload struct {
	N, D, M, K int
	Users      []DomainStream
}

// Validate checks structural invariants: a power-of-two horizon, a
// domain of at least two items, per-user change lists that are sorted
// with strictly increasing times, values inside [0..M), no more than K
// changes, and no no-op changes.
func (w *DomainWorkload) Validate() error {
	if !dyadic.IsPow2(w.D) {
		return fmt.Errorf("hh: d=%d not a power of two", w.D)
	}
	if w.M < 2 {
		return fmt.Errorf("hh: domain size m=%d must be at least 2", w.M)
	}
	if len(w.Users) != w.N {
		return fmt.Errorf("hh: %d users, header says %d", len(w.Users), w.N)
	}
	for u, us := range w.Users {
		if len(us.Changes) > w.K {
			return fmt.Errorf("hh: user %d has %d changes > k=%d", u, len(us.Changes), w.K)
		}
		prev := 0
		lastVal := -1
		for _, c := range us.Changes {
			if c.T <= prev || c.T > w.D {
				return fmt.Errorf("hh: user %d has change time %d out of order or outside [1..%d]", u, c.T, w.D)
			}
			if c.Value < 0 || c.Value >= w.M {
				return fmt.Errorf("hh: user %d has value %d outside [0..%d)", u, c.Value, w.M)
			}
			if c.Value == lastVal {
				return fmt.Errorf("hh: user %d has no-op change at t=%d", u, c.T)
			}
			prev, lastVal = c.T, c.Value
		}
	}
	return nil
}

// Truth returns the m×d matrix of true frequencies f(x, t).
func (w *DomainWorkload) Truth() [][]int {
	out := make([][]int, w.M)
	for x := range out {
		out[x] = make([]int, w.D)
	}
	// Difference arrays per item.
	for _, us := range w.Users {
		prevVal := -1
		for _, c := range us.Changes {
			if prevVal >= 0 {
				out[prevVal][c.T-1]--
			}
			out[c.Value][c.T-1]++
			prevVal = c.Value
		}
	}
	for x := 0; x < w.M; x++ {
		run := 0
		for t := 0; t < w.D; t++ {
			run += out[x][t]
			out[x][t] = run
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Streaming client: the item-indicator reduction over any Boolean client.

// Observer is the Boolean streaming client shape the reduction wraps:
// one Boolean value in per period, an occasional protocol report out.
// The protocol clients of every streaming dyadic mechanism (futurerand,
// independent, bun, erlingsson) implement it directly, and it is the
// same method set as ldp.ClientEngine, so a registry engine is wrapped
// as is.
type Observer interface {
	// Order returns the client's announced order h_u.
	Order() int
	// Observe consumes the Boolean value for the next period.
	Observe(value bool) (protocol.Report, bool)
}

// DomainClient runs one user's half of the richer-domain reduction under
// an encoding: it holds the user's sampled target row — an item under
// the exact encoding, a bucket under a hashed one — and feeds the
// wrapped Boolean client the indicator 1{enc.Row(v_u[t]) = row}. The
// emitted reports must reach the server tagged with Row().
type DomainClient struct {
	row   int
	enc   DomainEncoding
	inner Observer
}

// NewDomainClient wraps a Boolean client for the given sampled target
// row (uniform in [0, enc.Rows())) under the encoding.
func NewDomainClient(row int, enc DomainEncoding, inner Observer) (*DomainClient, error) {
	if err := enc.Validate(); err != nil {
		return nil, err
	}
	if row < 0 || row >= enc.Rows() {
		return nil, fmt.Errorf("hh: target %s %d outside [0..%d)", enc.RowName(), row, enc.Rows())
	}
	return &DomainClient{row: row, enc: enc, inner: inner}, nil
}

// Row returns the client's sampled target row, the value carried as
// Item in its wire frames (safe to transmit in the clear: it is sampled
// data-independently, like the order).
func (c *DomainClient) Row() int { return c.row }

// Order returns the wrapped Boolean client's announced order.
func (c *DomainClient) Order() int { return c.inner.Order() }

// Observe consumes the user's catalogue value for the next period (−1
// when the user has no value yet) and returns a report to ship when
// this period is a reporting time for the wrapped client. The value is
// checked against the catalogue; the row is in range by construction.
func (c *DomainClient) Observe(value int) (protocol.Report, bool, error) {
	if value < -1 || value >= c.enc.M {
		return protocol.Report{}, false, fmt.Errorf("hh: value %d outside [0..%d) (or -1 for unset)", value, c.enc.M)
	}
	r, ok := c.inner.Observe(value >= 0 && c.enc.Row(value) == c.row)
	return r, ok, nil
}

// ---------------------------------------------------------------------------
// Streaming server: per-item dyadic accumulators with the ×m estimator.

// ItemCount pairs an item with its estimated frequency at some time.
type ItemCount struct {
	Item  int
	Count float64
}

// DomainServer is the server half of the reduction: one flat counter
// matrix holding the state of m ≥ 2 dyadic accumulators (one per item)
// in contiguous per-shard arrays — protocol.DomainSharded, the same
// accumulator whose one-row view serves the Boolean rtf-serve path, and
// whose doc states the lock discipline — with every per-item estimate
// scaled by m. The ×m factor is folded into the matrix's
// estimator scale once at construction, so estimates remain a fixed
// linear function of the raw integer counters — which is what keeps
// sharded, durable and clustered deployments bit-for-bit equal to one
// serial server.
//
// Like the protocol-level types it panics on out-of-range items and
// orders; the ldp and transport layers validate at their boundaries.
type DomainServer struct {
	d, m      int
	boolScale float64 // the Boolean mechanism's estimator scale
	acc       *protocol.DomainSharded
	memo      estMemo // version-keyed EstimateAllAt/TopK cache, see memo.go
}

// NewDomainServer builds a server for horizon d (a power of two) over a
// domain of m items, given the Boolean protocol's estimator scale and
// the per-item accumulator shard count (at least 1; shard assignment
// never affects estimates).
func NewDomainServer(d, m int, boolScale float64, shards int) *DomainServer {
	if m < 2 {
		panic(fmt.Sprintf("hh: domain size m=%d must be at least 2", m))
	}
	return &DomainServer{
		d: d, m: m, boolScale: boolScale,
		acc: protocol.NewDomainSharded(d, m, float64(m)*boolScale, shards),
	}
}

// DomainServerOver builds a single-shard server whose counters are the
// given raw matrix — rows scoped to periods [l..r], full rows for
// l = r = 0 — adopted without a copy (see protocol.DomainShardedOver):
// the read-only state a gateway answers a completed gather from.
func DomainServerOver(d, m int, boolScale float64, l, r int, cells []int64) (*DomainServer, error) {
	acc, err := protocol.DomainShardedOver(d, m, float64(m)*boolScale, l, r, cells)
	if err != nil {
		return nil, err
	}
	return &DomainServer{d: d, m: m, boolScale: boolScale, acc: acc}, nil
}

// D returns the horizon.
func (s *DomainServer) D() int { return s.d }

// M returns the domain size.
func (s *DomainServer) M() int { return s.m }

// BoolScale returns the Boolean mechanism's estimator scale the server
// was built with (the per-item scale is m times it).
func (s *DomainServer) BoolScale() float64 { return s.boolScale }

// checkItem bounds-checks an item index with the package's own panic
// message (the protocol layer would panic too, one frame deeper).
func (s *DomainServer) checkItem(x int) {
	if x < 0 || x >= s.m {
		panic(fmt.Sprintf("hh: item %d outside [0..%d)", x, s.m))
	}
}

// Register records a user's announced (item, order) pair into the given
// shard. As with Ingest, the accumulator owns the bounds checks and
// panics on an out-of-range item or order.
func (s *DomainServer) Register(shard, item, order int) {
	s.acc.Register(shard, item, order)
}

// Ingest accumulates one report for the given item into the given
// shard under its lock, version-silently: the per-report entry of
// serial callers (see AdvanceVersion). Bounds checks happen once, in
// the accumulator, which panics on any out-of-range item, order, index
// or bit.
func (s *DomainServer) Ingest(shard, item int, r protocol.Report) {
	s.acc.Ingest(shard, item, r)
}

// Lock takes one shard's write lock for a run of writes — the served
// path: the writer's Register and Ingest are plain adds, and its Unlock
// advances the version stamp once for the whole run (see
// protocol.DomainSharded for the lock discipline).
func (s *DomainServer) Lock(shard int) protocol.DomainWriter { return s.acc.Lock(shard) }

// AdvanceVersion bumps the accumulator's mutation stamp for the given
// shard. Ingest is version-silent (see protocol.DomainSharded); its
// callers advance after their writes so those invalidate the memoized
// read path.
func (s *DomainServer) AdvanceVersion(shard int) { s.acc.AdvanceVersion(shard) }

// Version returns the accumulator's monotone mutation stamp; see
// protocol.DomainSharded.Version for the freshness contract.
func (s *DomainServer) Version() uint64 { return s.acc.Version() }

// Users returns the number of registered users across all items.
func (s *DomainServer) Users() int { return s.acc.Users() }

// EstimateItemAt returns f̂(item, t) = m·â_item(t), valid online once
// time t has passed.
func (s *DomainServer) EstimateItemAt(item, t int) float64 {
	s.checkItem(item)
	return s.acc.EstimateAt(item, t)
}

// EstimateItemAtCached is EstimateItemAt for the Items interface: an
// exact point estimate reads the counters directly, never a memo, so it
// never reports a cached answer.
func (s *DomainServer) EstimateItemAtCached(item, t int) (float64, bool) {
	return s.EstimateItemAt(item, t), false
}

// EstimateItemSeries returns f̂(item, 1..d). The caller owns the slice.
func (s *DomainServer) EstimateItemSeries(item int) []float64 {
	s.checkItem(item)
	return s.acc.EstimateSeries(item)
}

// TopK returns the k items with the largest estimated frequency at time
// t (1-based), in decreasing order with ties broken toward the smaller
// item — the heavy-hitter query the paper's introduction motivates
// (popular URLs). The ordering is a deterministic function of the
// per-item point estimates, so a clustered or recovered deployment
// whose point estimates are bit-for-bit answers the identical top-k
// list. k larger than m is clamped; t and k are assumed range-checked
// by the caller (the ldp and transport boundaries validate).
func (s *DomainServer) TopK(t, k int) []ItemCount {
	out, _ := s.AppendTopK(nil, t, k)
	return out
}

// AppendTopK appends the TopK result to dst and returns the extended
// slice, plus whether the selection was served from the version-keyed
// memo (an unchanged accumulator stamp — see memo.go for why a hit is
// bit-for-bit identical to recomputing). The appended entries are a
// copy: dst never aliases memo-owned storage, so callers may retain or
// mutate the result freely. Passing a recycled dst[:0] makes the warm
// path allocation-free; TopK itself is AppendTopK(nil, …), a fresh
// caller-owned slice.
func (s *DomainServer) AppendTopK(dst []ItemCount, t, k int) ([]ItemCount, bool) {
	if t < 1 || t > s.d {
		panic(fmt.Sprintf("hh: time %d out of range [1..%d]", t, s.d))
	}
	if k < 0 {
		panic("hh: negative k")
	}
	if k > s.m {
		k = s.m
	}
	mm := &s.memo
	mm.mu.Lock()
	defer mm.mu.Unlock()
	v := s.acc.Version()
	if mm.topValid && mm.topT == t && mm.topK == k && mm.topStamp == v {
		return append(dst, mm.top...), true
	}
	est := s.estimateAllLocked(t, v)
	// No ceiling: distinct items rarely tie at the maximum, so finding it
	// would cost a pass over m estimates to save nothing.
	mm.top = selectTopK(mm.top, s.m, k, math.Inf(1), func(x int) float64 { return est[x] })
	mm.topValid, mm.topT, mm.topK, mm.topStamp = true, t, k, v
	return append(dst, mm.top...), false
}

// estimateAllLocked returns the per-item estimate sweep at t, stamped
// with version v (which the caller must have loaded before calling),
// serving the memo when (t, v) is unchanged. The caller must hold
// memo.mu; the returned slice is memo-owned.
func (s *DomainServer) estimateAllLocked(t int, v uint64) []float64 {
	mm := &s.memo
	if mm.estValid && mm.estT == t && mm.estStamp == v {
		return mm.est
	}
	if mm.est == nil {
		mm.est = make([]float64, s.m)
		mm.tmp = make([]int64, s.m)
	}
	s.acc.EstimateAllAtInto(mm.est, mm.tmp, t)
	mm.estValid, mm.estT, mm.estStamp = true, t, v
	return mm.est
}

// FoldInto overwrites dst with every item's raw accumulator state — m
// rows of protocol.RawStride(d): user count, per-order counts,
// per-interval bit sums — the exact integers a cluster gateway ships
// between nodes.
func (s *DomainServer) FoldInto(dst []int64) { s.acc.FoldInto(dst) }

// Columns derives, once per request, the columns FoldRowsInto gathers
// for rows scoped to periods [l..r]; see protocol.DomainSharded.Columns.
func (s *DomainServer) Columns(l, r int) []int { return s.acc.Columns(l, r) }

// FoldRowsInto is FoldInto for the rows of items [lo, hi), or for their
// columns cols, under one acquisition of the read locks.
func (s *DomainServer) FoldRowsInto(lo, hi int, cols []int, dst []int64) {
	s.acc.FoldRowsInto(lo, hi, cols, dst)
}

// MergeRaw folds a raw matrix (as produced by FoldInto, possibly on
// another machine) into the server. Because every estimate is a fixed
// linear function of these integers, merging the raw sums of N
// partitioned servers reproduces one serial server bit for bit.
func (s *DomainServer) MergeRaw(cells []int64) error { return s.acc.MergeRaw(cells) }

// MarshalState serializes all per-item accumulator state for a durable
// snapshot: the kind-3 payload, byte-for-byte protocol.MarshalDomainState
// over one serial server per item fed the same reports. The payload is a
// point-in-time cut at run granularity (see protocol.DomainSharded).
func (s *DomainServer) MarshalState() []byte {
	return s.acc.MarshalState()
}

// RestoreState folds serialized state into the server — call it on a
// freshly constructed server to reload a snapshot. The payload's item
// count, horizon and per-item scale must all match.
func (s *DomainServer) RestoreState(b []byte) error {
	return s.acc.RestoreState(b)
}

// ---------------------------------------------------------------------------
// Workload generation.

// ZipfDomainGen generates a domain workload where values are drawn from a
// Zipf law (a few popular items) and each user changes value a uniform
// number of times up to K, at uniform times — a URL-popularity workload.
type ZipfDomainGen struct {
	N, D, M, K int
	S          float64 // Zipf exponent over items
}

// Name identifies the generator.
func (z ZipfDomainGen) Name() string { return "zipf-domain" }

// Generate builds the workload.
func (z ZipfDomainGen) Generate(g *rng.RNG) (*DomainWorkload, error) {
	if z.N < 1 || !dyadic.IsPow2(z.D) || z.M < 2 || z.K < 1 || z.K > z.D {
		return nil, fmt.Errorf("hh: invalid generator %+v", z)
	}
	if z.S < 0 {
		return nil, fmt.Errorf("hh: negative Zipf exponent %v", z.S)
	}
	zipf := g.NewZipf(z.M, z.S)
	w := &DomainWorkload{N: z.N, D: z.D, M: z.M, K: z.K, Users: make([]DomainStream, z.N)}
	for i := range w.Users {
		c := 1 + g.IntN(z.K) // at least the initial assignment
		times := g.KSubset(z.D, c)
		changes := make([]ValueChange, 0, c)
		last := -1
		for _, t0 := range times {
			v := zipf.Sample()
			if v == last {
				v = (v + 1) % z.M // avoid no-op changes
			}
			changes = append(changes, ValueChange{T: t0 + 1, Value: v})
			last = v
		}
		w.Users[i] = DomainStream{Changes: changes}
	}
	return w, nil
}
