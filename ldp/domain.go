package ldp

import (
	"fmt"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/rng"
	"rtf/internal/transport"
)

// This file is the public face of domain-valued tracking (the paper's
// "richer domains via existing techniques" adaptation, Section 1): each
// user samples one target item x_u ∈ [0..m) uniformly, tracks the
// Boolean indicator stream 1{v_u[t] = x_u} with any mechanism that
// declares the Domain capability, and the server runs one dyadic
// accumulator per item with estimates scaled by m. The streaming API
// (NewDomainClient / NewDomainServer) mirrors the Boolean one.

// DomainChange sets a user's domain value at time T (1-based); the first
// change is the initial assignment.
type DomainChange = hh.ValueChange

// DomainStream is one user's value history over a finite domain.
type DomainStream = hh.DomainStream

// DomainWorkload is a dataset of domain-valued user streams over [0..M).
type DomainWorkload = hh.DomainWorkload

// ItemCount pairs an item with its estimated frequency, the element of
// a top-k answer.
type ItemCount = hh.ItemCount

// MaxDomainSize bounds the domain size m accepted by the exact
// encoding at this boundary — the same bound the wire frames enforce
// (it aliases the one hh.MaxDomainRows constant, like
// transport.MaxDomainM), so any domain a client can construct is also
// servable over TCP and through a gateway. Hashed encodings accept
// catalogues up to hh.MaxHashedDomainM because only the bucket rows
// are materialized.
const MaxDomainSize = transport.MaxDomainM

// GenerateDomain builds a synthetic domain workload with Zipf-popular
// items: n users over d periods, domain size m, at most k value changes
// per user, Zipf exponent s.
func GenerateDomain(n, d, m, k int, s float64, seed int64) (*DomainWorkload, error) {
	return hh.ZipfDomainGen{N: n, D: d, M: m, K: k, S: s}.Generate(rng.NewFromSeed(seed))
}

// ValidateDomainSize validates a configured domain size m against the
// active encoding's cap: MaxDomainSize for "exact" (and ""), and
// hh.MaxHashedDomainM for "loloha". rtf-serve and rtf-gateway share
// this one check, so their -m flag validation cannot drift.
func ValidateDomainSize(m int, encoding string) error {
	if m < 2 {
		return fmt.Errorf("ldp: domain size m=%d must be at least 2", m)
	}
	switch encoding {
	case "", hh.EncodingExact:
		if m > MaxDomainSize {
			return fmt.Errorf("ldp: domain size m=%d exceeds the exact encoding's %d limit (hashed encodings go further)", m, MaxDomainSize)
		}
	case hh.EncodingLoloha:
		if m > hh.MaxHashedDomainM {
			return fmt.Errorf("ldp: domain size m=%d exceeds the loloha encoding's %d limit", m, hh.MaxHashedDomainM)
		}
	default:
		return fmt.Errorf("ldp: unknown domain encoding %q", encoding)
	}
	return nil
}

// domainEncodingOf resolves the configured encoding for domain size m.
// Exact (the default) rejects stray hash parameters; loloha takes its
// bucket count from WithBuckets, falling back to WithBudgetSplit's
// closed-form optimum.
func domainEncodingOf(cfg config, m int) (hh.DomainEncoding, error) {
	name := cfg.encoding
	if name == "" {
		name = hh.EncodingExact
	}
	if err := ValidateDomainSize(m, name); err != nil {
		return hh.DomainEncoding{}, err
	}
	switch name {
	case hh.EncodingExact:
		if cfg.buckets != 0 || cfg.hashSeed != 0 || cfg.epsPerm != 0 || cfg.eps1 != 0 {
			return hh.DomainEncoding{}, fmt.Errorf("ldp: the exact encoding takes no buckets, hash seed or budget split")
		}
		return hh.ExactEncoding(m), nil
	default: // hh.EncodingLoloha — ValidateDomainSize rejected anything else
		g := cfg.buckets
		if g == 0 && (cfg.epsPerm != 0 || cfg.eps1 != 0) {
			g = hh.OptimalBuckets(cfg.epsPerm, cfg.eps1)
		}
		if g == 0 {
			return hh.DomainEncoding{}, fmt.Errorf("ldp: the loloha encoding needs WithBuckets or WithBudgetSplit to fix its bucket count")
		}
		enc := hh.LolohaEncoding(m, g, cfg.hashSeed)
		if err := enc.Validate(); err != nil {
			return hh.DomainEncoding{}, err
		}
		return enc, nil
	}
}

// domainMechanism resolves a protocol to a registered mechanism with
// the Domain capability (and HashedDomain when the encoding hashes).
func domainMechanism(p Protocol, enc hh.DomainEncoding) (Mechanism, error) {
	m, err := lookupErr(p)
	if err != nil {
		return Mechanism{}, err
	}
	if !m.Caps.Domain {
		return Mechanism{}, fmt.Errorf("ldp: mechanism %q does not support domain tracking", p)
	}
	if enc.Hashed() && !m.Caps.HashedDomain {
		return Mechanism{}, fmt.Errorf("ldp: mechanism %q does not support hashed domain encodings", p)
	}
	return m, nil
}

// DomainReport is one item-tagged report shipped from a DomainClient to
// a DomainServer: the wrapped Boolean mechanism's report plus the
// client's sampled target item.
type DomainReport struct {
	// Item is the client's sampled target item (data-independent, safe
	// in the clear).
	Item int
	Report
}

// DomainClient is the client-side half of domain tracking for one user:
// it holds the sampled target row — an item under the exact encoding, a
// bucket under a hashed one — and feeds the derived indicator stream
// into the wrapped mechanism's Boolean client.
type DomainClient struct {
	inner *hh.DomainClient
}

// NewDomainClient creates a domain client for the given user over
// horizon d (a power of two) and domain size m. Mechanism, sparsity and
// budget come from options and must match the server's; the mechanism
// must declare the Domain capability. The target item and the client's
// randomness both derive from WithSeed mixed with the user id, exactly
// like NewClient; use DomainClientFactory.NewClient for explicit
// per-user seed control.
func NewDomainClient(user, d, m int, opts ...Option) (*DomainClient, error) {
	cfg := newConfig(opts)
	f, err := newDomainClientFactory(d, m, cfg)
	if err != nil {
		return nil, err
	}
	return f.NewClient(user, perUserSeed(cfg.seed, user))
}

// DomainClientFactory stamps out per-user domain clients sharing the
// mechanism's parameter tables, like ClientFactory for the Boolean
// protocol.
type DomainClientFactory struct {
	build ClientBuilder
	mech  Protocol
	enc   hh.DomainEncoding
}

// NewDomainClientFactory builds a factory for horizon d and domain size
// m with the given options (WithSeed is ignored here; seeds are per
// client).
func NewDomainClientFactory(d, m int, opts ...Option) (*DomainClientFactory, error) {
	return newDomainClientFactory(d, m, newConfig(opts))
}

func newDomainClientFactory(d, m int, cfg config) (*DomainClientFactory, error) {
	enc, err := domainEncodingOf(cfg, m)
	if err != nil {
		return nil, err
	}
	mech, err := domainMechanism(cfg.mech, enc)
	if err != nil {
		return nil, err
	}
	p, err := cfg.params(d)
	if err != nil {
		return nil, err
	}
	build, err := mech.Clients(p)
	if err != nil {
		return nil, err
	}
	return &DomainClientFactory{build: build, mech: cfg.mech, enc: enc}, nil
}

// Mechanism returns the factory's protocol.
func (f *DomainClientFactory) Mechanism() Protocol { return f.mech }

// M returns the domain (catalogue) size.
func (f *DomainClientFactory) M() int { return f.enc.M }

// Encoding returns the factory's domain encoding.
func (f *DomainClientFactory) Encoding() hh.DomainEncoding { return f.enc }

// NewClient builds the client for one user, seeded deterministically:
// the seed drives both the uniform target-row draw (an item under the
// exact encoding, a bucket under a hashed one) and the wrapped Boolean
// client's randomness, through disjoint streams, drawn in that order —
// the order exact clients have always drawn in.
func (f *DomainClientFactory) NewClient(user int, seed int64) (*DomainClient, error) {
	g := rng.NewFromSeed(seed)
	row := g.IntN(f.enc.Rows())
	eng, err := f.build(user, g.Int64())
	if err != nil {
		return nil, err
	}
	inner, err := hh.NewDomainClient(row, f.enc, eng)
	if err != nil {
		return nil, err
	}
	return &DomainClient{inner: inner}, nil
}

// Item returns the client's sampled target row: its target item under
// the exact encoding, its target bucket under a hashed one. In both
// cases this is the value carried as Item in the client's wire hello
// and reports (data-independent, safe in the clear).
func (c *DomainClient) Item() int { return c.inner.Row() }

// Order returns the wrapped Boolean client's announced order.
func (c *DomainClient) Order() int { return c.inner.Order() }

// Observe consumes the user's current domain value for the next time
// period (−1 while the user has no value) and returns a row-tagged
// report to ship when this period is a reporting time for the client.
// Values outside [0..m) (other than −1) are rejected. Under a hashed
// encoding the value is hashed to its bucket first and the report's
// Item is the client's sampled bucket.
func (c *DomainClient) Observe(value int) (DomainReport, bool, error) {
	r, ok, err := c.inner.Observe(value)
	if err != nil || !ok {
		return DomainReport{}, false, err
	}
	return DomainReport{Item: c.inner.Row(), Report: r}, true, nil
}

// DomainServer is the server-side half of domain tracking: one dyadic
// accumulator per row (the exact shared types behind rtf-serve) —
// per-item rows scaled by m under the exact encoding, per-bucket rows
// decoded into item estimates under a hashed one. It answers the
// item-scoped query shapes — PointItem, SeriesItem, TopK — through
// Answer.
type DomainServer struct {
	rows  *hh.DomainServer // takes every write
	items hh.Items         // the encoding's reader over rows
	enc   hh.DomainEncoding
	d     int
	mech  Protocol
}

// NewDomainServer creates a domain server for horizon d (a power of
// two) and domain size m. Mechanism, sparsity, budget and encoding
// come from options and must match the clients'; the mechanism must
// declare the Domain capability (HashedDomain for hashed encodings).
func NewDomainServer(d, m int, opts ...Option) (*DomainServer, error) {
	cfg := newConfig(opts)
	enc, err := domainEncodingOf(cfg, m)
	if err != nil {
		return nil, err
	}
	p, err := cfg.params(d)
	if err != nil {
		return nil, err
	}
	mech, err := domainMechanism(cfg.mech, enc)
	if err != nil {
		return nil, err
	}
	scale, err := mech.EstimatorScale(p)
	if err != nil {
		return nil, err
	}
	rows := hh.NewDomainServer(d, enc.Rows(), scale, 1)
	return &DomainServer{rows: rows, items: hh.ItemsOver(enc, rows), enc: enc, d: d, mech: cfg.mech}, nil
}

// Mechanism returns the server's protocol.
func (s *DomainServer) Mechanism() Protocol { return s.mech }

// D returns the horizon.
func (s *DomainServer) D() int { return s.d }

// M returns the domain (catalogue) size.
func (s *DomainServer) M() int { return s.enc.M }

// Encoding returns the server's domain encoding.
func (s *DomainServer) Encoding() hh.DomainEncoding { return s.enc }

// Users returns the number of registered users across all rows.
func (s *DomainServer) Users() int { return s.rows.Users() }

// Register records a user's announced (row, order) pair: the sampled
// item under the exact encoding, the sampled bucket under a hashed
// one — exactly the value a DomainClient reports as Item.
func (s *DomainServer) Register(item, order int) error {
	if rows := s.enc.Rows(); item < 0 || item >= rows {
		return fmt.Errorf("ldp: %s %d out of range [0..%d)", s.enc.RowName(), item, rows)
	}
	if maxOrder := dyadic.Log2(s.d); order < 0 || order > maxOrder {
		return fmt.Errorf("ldp: order %d out of range [0..%d]", order, maxOrder)
	}
	s.rows.Register(0, item, order)
	return nil
}

// Ingest accumulates one row-tagged client report. Reports with
// out-of-range fields — including negative user ids — are rejected at
// this boundary.
func (s *DomainServer) Ingest(r DomainReport) error {
	if rows := s.enc.Rows(); r.Item < 0 || r.Item >= rows {
		return fmt.Errorf("ldp: report %s %d out of range [0..%d)", s.enc.RowName(), r.Item, rows)
	}
	if r.User < 0 {
		return fmt.Errorf("ldp: negative user id %d", r.User)
	}
	if r.Bit != 1 && r.Bit != -1 {
		return fmt.Errorf("ldp: report bit %d must be ±1", r.Bit)
	}
	if maxOrder := dyadic.Log2(s.d); r.Order < 0 || r.Order > maxOrder {
		return fmt.Errorf("ldp: report order %d out of range", r.Order)
	}
	if r.J < 1 || r.J > s.d>>uint(r.Order) {
		return fmt.Errorf("ldp: report index %d out of range for order %d", r.J, r.Order)
	}
	s.rows.Ingest(0, r.Item, r.Report)
	s.rows.AdvanceVersion(0)
	return nil
}

// Answer is the unified query entry point for the item-scoped shapes:
// PointItem fills Value, SeriesItem fills Series, TopK fills Items with
// the parallel Series values. Boolean query kinds are rejected — they
// belong to a Server.
func (s *DomainServer) Answer(q Query) (Answer, error) {
	switch q.Kind {
	case PointItem:
		if q.Item < 0 || q.Item >= s.enc.M {
			return Answer{}, fmt.Errorf("ldp: item %d out of range [0..%d)", q.Item, s.enc.M)
		}
		if q.T < 1 || q.T > s.d {
			return Answer{}, fmt.Errorf("ldp: time %d out of range [1..%d]", q.T, s.d)
		}
		v, _ := s.items.EstimateItemAtCached(q.Item, q.T)
		return Answer{Query: q, Value: v}, nil
	case SeriesItem:
		if q.Item < 0 || q.Item >= s.enc.M {
			return Answer{}, fmt.Errorf("ldp: item %d out of range [0..%d)", q.Item, s.enc.M)
		}
		// A fresh slice, as on the Boolean path: never a view into an
		// engine's backing array.
		return Answer{Query: q, Series: s.items.EstimateItemSeries(q.Item)}, nil
	case TopK:
		if q.T < 1 || q.T > s.d {
			return Answer{}, fmt.Errorf("ldp: time %d out of range [1..%d]", q.T, s.d)
		}
		if q.K < 0 {
			return Answer{}, fmt.Errorf("ldp: negative k %d", q.K)
		}
		top, _ := s.items.AppendTopK(nil, q.T, q.K)
		a := Answer{Query: q, Items: make([]int, len(top)), Series: make([]float64, len(top))}
		for i, ic := range top {
			a.Items[i] = ic.Item
			a.Series[i] = ic.Count
		}
		return a, nil
	case Point, Change, Series, Window:
		return Answer{}, fmt.Errorf("ldp: Boolean query %s requires a Server, not a domain server", q.Kind)
	default:
		return Answer{}, fmt.Errorf("ldp: unknown query kind %d", int(q.Kind))
	}
}

// TopK returns the k items with the largest estimated frequency at
// time t, most frequent first (ties toward the smaller item);
// shorthand for Answer(TopKQuery(t, k)).
func (s *DomainServer) TopK(t, k int) ([]ItemCount, error) {
	a, err := s.Answer(TopKQuery(t, k))
	if err != nil {
		return nil, err
	}
	out := make([]ItemCount, len(a.Items))
	for i := range a.Items {
		out[i] = ItemCount{Item: a.Items[i], Count: a.Series[i]}
	}
	return out, nil
}

// EstimateItemAt returns f̂(item, t); shorthand for
// Answer(PointItemQuery(item, t)).
func (s *DomainServer) EstimateItemAt(item, t int) (float64, error) {
	a, err := s.Answer(PointItemQuery(item, t))
	if err != nil {
		return 0, err
	}
	return a.Value, nil
}

// MarshalState serializes all per-row accumulator state for a durable
// snapshot.
func (s *DomainServer) MarshalState() ([]byte, error) { return s.rows.MarshalState(), nil }

// RestoreState reloads state produced by MarshalState on a server built
// with the same mechanism, parameters and encoding. Call it on a fresh
// server; estimates afterwards are bit-for-bit those of the
// snapshotted server.
func (s *DomainServer) RestoreState(state []byte) error { return s.rows.RestoreState(state) }
