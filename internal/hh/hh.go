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
// (protocol.DomainSharded, which it embeds: the counters of the rows'
// dyadic accumulators in one contiguous [rows × intervals] array per
// shard, one index computation and one plain add per report, one shard
// lock per run). Queries read Items: one item reader (memo.go) under
// the encoding, with one memo per reader — the DomainServer itself under
// the exact encoding, a HashedDomainServer over its rows under loloha
// (ItemsOver) — plus the domain workload model and the Zipf generator.
// The public entry points (tagged wire frames, mechanism selection,
// validation) live in the ldp and transport packages; this package is
// the engine.
package hh

import (
	"fmt"

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
// Public API through the ldp.DomainStream alias.
func (s DomainStream) NumChanges() int { return len(s.Changes) }

// DomainWorkload is a complete domain-valued dataset.
type DomainWorkload struct {
	N, D, M, K int
	Users      []DomainStream
}

// Validate checks structural invariants: a power-of-two horizon, a
// domain of at least two items, per-user change lists that are sorted
// with strictly increasing times, values inside [0..M), no more than K
// changes, and no no-op changes. Nothing in this module calls it;
// ldp.DomainWorkload aliases the type, so it is public API.
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
// The matrix's writes, folds, raw-sums merge and snapshot state are its
// own methods, promoted; the item reads are the exact encoding's reader
// over its rows (memo.go). Like the protocol-level types it panics on
// out-of-range items and orders; the ldp and transport layers validate
// at their boundaries.
type DomainServer struct {
	*protocol.DomainSharded
	itemReader
	boolScale float64 // the Boolean mechanism's estimator scale
}

// NewDomainServer builds a server for horizon d (a power of two) over a
// domain of m items, given the Boolean protocol's estimator scale and
// the per-item accumulator shard count (at least 1; shard assignment
// never affects estimates).
func NewDomainServer(d, m int, boolScale float64, shards int) *DomainServer {
	if m < 2 {
		panic(fmt.Sprintf("hh: domain size m=%d must be at least 2", m))
	}
	return domainServer(d, m, boolScale, protocol.NewDomainSharded(d, m, float64(m)*boolScale, shards))
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
	return domainServer(d, m, boolScale, acc), nil
}

func domainServer(d, m int, boolScale float64, acc *protocol.DomainSharded) *DomainServer {
	return &DomainServer{
		DomainSharded: acc,
		itemReader:    itemReader{enc: ExactEncoding(m), d: d, acc: acc},
		boolScale:     boolScale,
	}
}

// BoolScale returns the Boolean mechanism's estimator scale the server
// was built with (the per-item scale is m times it).
func (s *DomainServer) BoolScale() float64 { return s.boolScale }

// ---------------------------------------------------------------------------
// Workload generation.

// ZipfDomainGen generates a domain workload where values are drawn from a
// Zipf law (a few popular items) and each user changes value a uniform
// number of times up to K, at uniform times — a URL-popularity workload.
type ZipfDomainGen struct {
	N, D, M, K int
	S          float64 // Zipf exponent over items
}

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
