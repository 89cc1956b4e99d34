// Package protocol implements the longitudinal data-collection protocol
// of Section 4: the client algorithm Aclt (Algorithm 1), the server
// algorithm Asvr (Algorithm 2) together with its sharded accumulator for
// concurrent ingestion — DomainSharded, m counter rows under one shard
// lock per ingested run (its doc states the lock discipline), of which
// the Boolean Sharded is the one-row view — and the two baselines of
// Section 6 — the Erlingsson et al. change-sampling protocol and the
// naive ε/d budget-splitting protocol.
package protocol

import (
	"fmt"

	"rtf/internal/core"
	"rtf/internal/dyadic"
	"rtf/internal/probmath"
	"rtf/internal/rng"
)

// Report is a single perturbed partial sum sent to the server: user u,
// with sampled order h, reports ω_u[j] = M^(j)(S_u(I_{h,j})) at time
// t = j·2^h.
type Report struct {
	User  int
	Order int  // the user's sampled order h_u
	J     int  // dyadic index j within order h_u (1-based)
	Bit   int8 // perturbed value ±1
}

// SampleOrder draws h_u uniformly from [0 .. log₂ d] (Algorithm 1, line 1).
func SampleOrder(g *rng.RNG, d int) int {
	return g.IntN(dyadic.NumOrders(d))
}

// reporter is what the dyadic clients share: the user's identity and
// sampled order, the clock, the randomizer M and — for a client built
// from a seed — the generator M draws from, all held by value so one
// client is one object.
type reporter struct {
	user, d, order int
	t              int
	mask           int // 2^h − 1: period t reports when t&mask == 0
	inst           core.Instance
	own            rng.RNG // unseeded when the caller supplied the generator
}

// init fixes the (already sampled) order h and performs M.init from f,
// which must be parameterized for sequences of length L = d/2^h.
func (r *reporter) init(user, d, h int, f core.Factory, g *rng.RNG) {
	if h < 0 || h > dyadic.Log2(d) {
		panic(fmt.Sprintf("protocol: order %d out of range for d=%d", h, d))
	}
	r.user, r.d, r.order, r.mask = user, d, h, 1<<uint(h)-1
	r.inst = f.NewInstance(g)
}

// Order returns the sampled order h_u, which the client reports to the
// server in the clear (it is data-independent).
func (r *reporter) Order() int { return r.order }

// tick moves the clock to the next period and reports whether 2^h
// divides it, i.e. whether the client owes the server a report.
func (r *reporter) tick() bool {
	r.t++
	if r.t > r.d {
		panic("protocol: more observations than time periods")
	}
	return r.t&r.mask == 0
}

// report perturbs the partial sum of the order-h interval ending now.
func (r *reporter) report(sum int8) Report {
	return Report{User: r.user, Order: r.order, J: r.t >> uint(r.order), Bit: r.inst.Perturb(sum)}
}

// bit is the stream value st_u[t] ∈ {0, 1} of a Boolean observation.
func bit(value bool) uint8 {
	if value {
		return 1
	}
	return 0
}

// Client is the client-side algorithm Aclt. Feed it one stream value per
// time period with Observe; it emits a report exactly when 2^h divides t.
// A Client must not be copied once built: a seeded one holds the
// generator its randomizer points at.
type Client struct {
	reporter
	lastVal uint8 // st_u at the previous multiple of 2^h (Observation 3.7; st_u[0] = 0)

	// Clipping state: when clipK ≥ 1 the client freezes its effective
	// stream after clipK changes so the sparsity contract holds even if
	// the true stream exceeds the bound (a deployment necessity the paper
	// assumes away). prevEff is the effective value at t−1; changes counts
	// effective changes per Definition 3.1 (the implicit st[0] = 0).
	clipK   int
	prevEff uint8
	changes int
}

// NewClient builds a client for user u over horizon d. The order h_u is
// sampled from g, and the randomizer instance is initialized from the
// order's entry in the per-order factory table (M.init), which keeps
// drawing from g afterwards.
func NewClient(user, d int, factories []core.Factory, g *rng.RNG) *Client {
	h := SampleOrder(g, d)
	return NewClientWithOrder(user, d, h, factories[h], g)
}

// NewClientWithOrder builds a client with a fixed (already sampled)
// order h. The factory must be parameterized for sequences of length
// L = d/2^h.
func NewClientWithOrder(user, d, h int, f core.Factory, g *rng.RNG) *Client {
	c := new(Client)
	c.init(user, d, h, f, g)
	return c
}

// NewClippedClient is NewClient for streams that may exceed the k bound:
// the client freezes its effective value after the k-th change, keeping
// the randomizer's sparsity contract at the cost of bias for users who
// change more than k times. Experiment E20 quantifies the trade-off of
// choosing k too small versus too large.
func NewClippedClient(user, d, k int, factories []core.Factory, g *rng.RNG) *Client {
	if k < 1 {
		panic("protocol: clipping bound must be >= 1")
	}
	c := NewClient(user, d, factories, g)
	c.clipK = k
	return c
}

// NewSeededClient is NewClient (clipK = 0) or NewClippedClient
// (clipK ≥ 1) drawing the stream rng.NewFromSeed(seed) would produce
// from a generator inside the client, so the client, its randomizer and
// its generator are one allocation.
func NewSeededClient(user, d, clipK int, factories []core.Factory, seed int64) *Client {
	c := &Client{clipK: clipK}
	c.own.Seed(seed)
	h := SampleOrder(&c.own, d)
	c.init(user, d, h, factories[h], &c.own)
	return c
}

// Observe consumes st_u[t] for the next time period and returns the
// report to send, if this is a reporting time for the client's order.
// It panics when fed more than d periods: the horizon is fixed at
// construction, so a (d+1)-th observation is a caller bug.
func (c *Client) Observe(value bool) (Report, bool) {
	reporting := c.tick()
	v := bit(value)
	if c.clipK > 0 && v != c.prevEff {
		if c.changes >= c.clipK {
			v = c.prevEff // frozen: drop changes beyond the budget
		} else {
			c.changes++
			c.prevEff = v
		}
	}
	if !reporting {
		return Report{}, false
	}
	sum := int8(v) - int8(c.lastVal)
	c.lastVal = v
	return c.report(sum), true
}

// FactoryTable builds one randomizer factory per order h ∈ [0..log₂ d],
// with L = d/2^h, using the given constructor. All clients share the
// table, so the expensive annulus computation happens once per order.
func FactoryTable(d, k int, eps float64, mk func(l, k int, eps float64) (core.Factory, error)) ([]core.Factory, error) {
	if !dyadic.IsPow2(d) {
		return nil, fmt.Errorf("protocol: d=%d not a power of two", d)
	}
	out := make([]core.Factory, dyadic.NumOrders(d))
	for h := range out {
		f, err := mk(d>>uint(h), k, eps)
		if err != nil {
			return nil, fmt.Errorf("protocol: order %d: %w", h, err)
		}
		out[h] = f
	}
	return out, nil
}

// FutureRandFactories returns the per-order factory table for the paper's
// protocol. The sparsity bound k and budget ε are shared by all orders;
// only the sequence length L varies, so all orders share one exact
// annulus computation.
func FutureRandFactories(d, k int, eps float64) ([]core.Factory, error) {
	p, err := probmath.NewFutureRand(k, eps)
	if err != nil {
		return nil, err
	}
	return FactoryTable(d, k, eps, func(l, _ int, _ float64) (core.Factory, error) {
		return core.NewFactoryFromParams(l, p, "futurerand")
	})
}

// IndependentFactories returns the per-order table for the Example 4.2
// randomizer.
func IndependentFactories(d, k int, eps float64) ([]core.Factory, error) {
	return FactoryTable(d, k, eps, func(l, k int, eps float64) (core.Factory, error) {
		return core.NewIndependentFactory(l, k, eps)
	})
}

// BunFactories returns the per-order table for the Bun et al. composed
// randomizer made online, sharing one annulus computation.
func BunFactories(d, k int, eps float64) ([]core.Factory, error) {
	p, err := probmath.NewBun(k, eps)
	if err != nil {
		return nil, err
	}
	return FactoryTable(d, k, eps, func(l, _ int, _ float64) (core.Factory, error) {
		return core.NewFactoryFromParams(l, p, "bun-composed")
	})
}
