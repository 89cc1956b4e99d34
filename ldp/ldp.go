// Package ldp is the public API of the RTF library: locally differentially
// private frequency estimation for longitudinal Boolean data, implementing
// the PODS 2022 paper "Randomize the Future" (Ohrimenko, Wirth, Wu).
//
// Every protocol in the paper — FutureRand and the baselines it is
// compared against — is a Mechanism in one fixed table (Lookup,
// Mechanisms), and two levels of API dispatch through it.
//
// The streaming level is the client/server split of Algorithms 1–2, for
// any mechanism: each user runs a Client fed one Boolean value per period
// and ships the emitted reports; the server aggregates them and answers
// online. A ClientFactory shares the mechanism's parameter tables across
// users.
//
//	srv, _ := ldp.NewServer(d, ldp.WithEpsilon(1), ldp.WithMechanism(ldp.Erlingsson))
//	c, _ := ldp.NewClient(user, d, ldp.WithEpsilon(1), ldp.WithMechanism(ldp.Erlingsson))
//	// per period: if rep, ok := c.Observe(value); ok { srv.Ingest(rep) }
//
// The query level asks one entry point — Server.Answer — for any of the
// four query shapes (Point, Change, Series, Window), uniformly across
// mechanisms. Domain-valued streams have the same two levels
// (NewDomainClient, NewDomainServer and the item-scoped queries).
//
// Conn is the client of the served protocol, over a connection the
// caller dials to an rtf-serve instance or an rtf-gateway: it ships the
// clients' hellos and reports in acknowledged batches, hands back which
// batches the server's bounded queue shed, answers any Query as the
// in-process server would, bit for bit, and fences.
//
//	nc, _ := net.Dial("tcp", addr)
//	conn, _ := ldp.NewConn(nc, d)
//	conn.Hello(user, c.Order()) // then conn.Report(rep) for every report
//	verdicts, _ := conn.Fence() // false: that batch was shed whole
//	a, _ := conn.Answer(ldp.PointQuery(t))
package ldp

import (
	"fmt"

	"rtf/internal/dyadic"
	"rtf/internal/probmath"
	"rtf/internal/protocol"
)

// Protocol selects which mechanism runs; it is the table key.
type Protocol string

// Built-in protocols.
const (
	// FutureRand is the paper's protocol (Theorem 4.1): error
	// O((1/ε)·log d·√(k·n·log(d/β))).
	FutureRand Protocol = "futurerand"
	// Independent replaces the randomizer with Example 4.2's ε/k
	// composition: error linear in k.
	Independent Protocol = "independent"
	// Bun uses the Bun–Nelson–Stemmer composition (Appendix A.2) made
	// online: a √ln(k/ε) factor worse than FutureRand.
	Bun Protocol = "bun"
	// Erlingsson is the 2020 baseline: one sampled change, basic
	// randomized response at ε/2, ×k estimator; error linear in k.
	Erlingsson Protocol = "erlingsson"
	// NaiveSplit repeats a one-shot randomized response with budget ε/d
	// per period: error linear in d.
	NaiveSplit Protocol = "naive-split"
	// CentralBinary is the trusted-curator binary mechanism (Section 6
	// related work), for central-vs-local comparisons.
	CentralBinary Protocol = "central-binary"
)

// CGap returns the exact preservation gap of the FutureRand randomizer
// at sparsity k and budget eps — the constant behind the protocol's
// estimator and Theorem 4.4's Ω(ε/√k).
func CGap(k int, eps float64) (float64, error) {
	p, err := probmath.NewFutureRand(k, eps)
	if err != nil {
		return 0, err
	}
	return p.CGap, nil
}

// ErrorBound returns the Theorem 4.1 high-probability ℓ∞ error bound for
// the FutureRand protocol, union-bounded over all d periods at failure
// probability beta.
func ErrorBound(n, d, k int, eps, beta float64) (float64, error) {
	return probmath.TheoreticalBound(n, d, k, eps, beta)
}

// ---------------------------------------------------------------------------
// Streaming API (Algorithms 1 and 2), mechanism-agnostic.

// Report is one report shipped from a client to the server. For dyadic
// mechanisms it is a perturbed partial sum at interval (Order, J); the
// per-period baselines use Order 0 with J as the time period. Bit is ±1.
// It is the protocol layer's report type itself (fields User, Order, J,
// Bit), so a report crosses client → wire → accumulator without being
// re-packed.
type Report = protocol.Report

// Option configures the streaming constructors (NewClient, NewServer,
// NewClientFactory).
type Option func(*config)

type config struct {
	mech Protocol
	k    int
	eps  float64
	seed int64

	// Domain encoding selection (domain constructors only). encoding ""
	// means exact; buckets and hashSeed configure loloha.
	encoding string
	buckets  int
	hashSeed uint64
}

func newConfig(opts []Option) config {
	cfg := config{mech: FutureRand, k: 1, eps: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// params resolves the options for horizon d. It is the one check that
// d is a power of two and that k is at most probmath.MaxVerifiedK, the
// fronts' bound, in their words: every mechanism factory may assume
// both.
func (c config) params(d int) (Params, error) {
	if !dyadic.IsPow2(d) {
		return Params{}, fmt.Errorf("ldp: d=%d is not a power of two", d)
	}
	if err := probmath.CheckVerifiedK(c.k); err != nil {
		return Params{}, fmt.Errorf("ldp: %w", err)
	}
	return Params{D: d, K: c.k, Eps: c.eps, Seed: c.seed}, nil
}

// WithMechanism selects the protocol (default FutureRand). Clients and
// server must agree.
func WithMechanism(p Protocol) Option { return func(c *config) { c.mech = p } }

// WithEpsilon sets the per-user privacy budget (default 1).
func WithEpsilon(eps float64) Option { return func(c *config) { c.eps = eps } }

// WithSparsity sets the per-user bound k on value changes (default 1,
// at most 1024, the largest k whose privacy is verified exactly). A
// FutureRand, Independent or Bun client clips its stream at k: after
// the k-th change it keeps the value that change set and reports on,
// so a stream past the bound costs accuracy, never a refusal or a
// panic, and the guarantee holds for every stream. A domain client
// clips the same way at the indicator level, through the Boolean
// client it wraps.
func WithSparsity(k int) Option { return func(c *config) { c.k = k } }

// WithSeed seeds the constructed object's randomness (a client's
// randomizer; the central mechanism's server-side noise). Default 0.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithDomainEncoding selects the domain encoding for the domain
// constructors: "exact" (the default — one server row per catalogue
// item, m ≤ 4096) or "loloha" (longitudinal local hashing — items hash
// to g buckets under a shared epoch seed, m up to 2^24 with server
// memory scaling in g). Either encoding takes any dyadic mechanism
// (Mechanism.Dyadic). Ignored by the Boolean constructors.
func WithDomainEncoding(name string) Option { return func(c *config) { c.encoding = name } }

// WithBuckets sets the hashed encoding's bucket count g (2..4096),
// which WithDomainEncoding("loloha") requires and the exact encoding
// refuses. No g is known to be best for this system's decoder (ROADMAP
// item 7.2), so g is always the caller's choice.
func WithBuckets(g int) Option { return func(c *config) { c.buckets = g } }

// WithHashSeed sets the shared epoch hash seed of a hashed encoding.
// Every client and server of one collection epoch must use the same
// seed — the bucket counters only decode into item estimates because
// the server can recompute each item's bucket. Default 0.
func WithHashSeed(seed uint64) Option { return func(c *config) { c.hashSeed = seed } }

// Client is the client-side half of the streaming protocol for one
// user, for whatever mechanism it was built with.
type Client struct {
	eng ClientEngine
}

// perUserSeed derives one user's client seed from the shared WithSeed
// value: SplitMix-style golden-ratio mixing keeps user-id seeding
// disjoint from plain WithSeed values, so distinct (seed, user) pairs
// do not collide by simple arithmetic. Both per-user construction paths
// (NewClient, NewDomainClient) derive seeds through this one function.
func perUserSeed(seed int64, user int) int64 {
	return seed ^ (int64(user) * -0x61c8864680b583eb)
}

// NewClient creates a client for the given user over horizon d (a power
// of two). Mechanism, sparsity and budget come from options. The
// client's randomness is seeded by mixing WithSeed with the user id, so
// distinct users get independent randomness even when every client is
// built with the same option list, and distinct (seed, user) pairs do
// not collide by simple arithmetic; use ClientFactory.NewClient for
// explicit per-user seed control. The announced order (safe to transmit
// in the clear) is available via Order.
func NewClient(user, d int, opts ...Option) (*Client, error) {
	cfg := newConfig(opts)
	f, err := newClientFactory(d, cfg)
	if err != nil {
		return nil, err
	}
	return f.NewClient(user, perUserSeed(cfg.seed, user))
}

// checkUser refuses a negative user id, once for every mechanism: the
// client factories call it before a ClientBuilder runs.
func checkUser(user int) error {
	if user < 0 {
		return fmt.Errorf("ldp: negative user id %d", user)
	}
	return nil
}

// ClientFactory stamps out per-user clients that share the mechanism's
// parameter tables — for FutureRand, the one-time exact annulus
// computation — so constructing a million clients costs the expensive
// setup once.
type ClientFactory struct {
	build ClientBuilder
	mech  Protocol
}

// NewClientFactory builds a factory for horizon d with the given
// options (WithSeed is ignored here; seeds are per client).
func NewClientFactory(d int, opts ...Option) (*ClientFactory, error) {
	return newClientFactory(d, newConfig(opts))
}

func newClientFactory(d int, cfg config) (*ClientFactory, error) {
	m, err := lookupErr(cfg.mech)
	if err != nil {
		return nil, err
	}
	p, err := cfg.params(d)
	if err != nil {
		return nil, err
	}
	build, err := m.Clients(p)
	if err != nil {
		return nil, err
	}
	return &ClientFactory{build: build, mech: cfg.mech}, nil
}

// Mechanism returns the factory's protocol.
func (f *ClientFactory) Mechanism() Protocol { return f.mech }

// NewClient builds the client for one user, seeded deterministically.
func (f *ClientFactory) NewClient(user int, seed int64) (*Client, error) {
	if err := checkUser(user); err != nil {
		return nil, err
	}
	eng, err := f.build(user, seed)
	if err != nil {
		return nil, err
	}
	return &Client{eng: eng}, nil
}

// Order returns the client's announced order h_u (0 for mechanisms
// without order sampling).
func (c *Client) Order() int { return c.eng.Order() }

// Observe consumes the user's current Boolean value for the next time
// period and returns a report to ship when this period is a reporting
// time for the client. The horizon d is fixed at construction: a
// (d+1)-th call is a caller bug and panics ("more observations than
// time periods") rather than returning an error.
func (c *Client) Observe(value bool) (Report, bool) {
	return c.eng.Observe(value)
}

// Server is the server-side half of the streaming protocol, for
// whatever mechanism it was built with. All mechanisms answer the same
// queries through Answer (and the EstimateAt/Estimates/EstimateChange
// shims).
type Server struct {
	eng  ServerEngine
	d    int
	mech Protocol
}

// NewServer creates a server for horizon d (a power of two). Mechanism,
// sparsity and budget come from options and must match the clients'.
func NewServer(d int, opts ...Option) (*Server, error) {
	cfg := newConfig(opts)
	m, err := lookupErr(cfg.mech)
	if err != nil {
		return nil, err
	}
	p, err := cfg.params(d)
	if err != nil {
		return nil, err
	}
	eng, err := m.newServer(p)
	if err != nil {
		return nil, err
	}
	return &Server{eng: eng, d: d, mech: cfg.mech}, nil
}

// Mechanism returns the server's protocol.
func (s *Server) Mechanism() Protocol { return s.mech }

// Register records a user's announced order.
func (s *Server) Register(order int) error {
	return s.eng.Register(order)
}

// Ingest accumulates one client report. Reports with out-of-range
// fields — including negative user ids — are rejected at this boundary.
func (s *Server) Ingest(r Report) error {
	if r.User < 0 {
		return fmt.Errorf("ldp: negative user id %d", r.User)
	}
	if r.Bit != 1 && r.Bit != -1 {
		return fmt.Errorf("ldp: report bit %d must be ±1", r.Bit)
	}
	return s.eng.Ingest(r)
}

// EstimateAt returns â[t] for t in [1..d], valid online once time t has
// passed (all reports for times ≤ t arrive by time t). It is shorthand
// for Answer(PointQuery(t)).
func (s *Server) EstimateAt(t int) (float64, error) {
	a, err := s.Answer(PointQuery(t))
	if err != nil {
		return 0, err
	}
	return a.Value, nil
}

// Estimates returns the full series â[1..d]; shorthand for
// Answer(SeriesQuery()). The caller owns the returned slice.
func (s *Server) Estimates() []float64 {
	a, _ := s.Answer(SeriesQuery()) // a series query has no bounds to fail
	return a.Series
}

// EstimateChange returns an unbiased estimate of a[r] − a[l−1], the net
// change over [l..r]; shorthand for Answer(ChangeQuery(l, r)). Dyadic
// mechanisms cover the range directly (at most 2·⌈log₂(r−l+1)⌉
// intervals — proportionally less noise for short ranges than
// differencing two prefix estimates).
func (s *Server) EstimateChange(l, r int) (float64, error) {
	a, err := s.Answer(ChangeQuery(l, r))
	if err != nil {
		return 0, err
	}
	return a.Value, nil
}

// Users returns the number of registered users.
func (s *Server) Users() int { return s.eng.Users() }

// MarshalState serializes the server's accumulated state for a durable
// snapshot.
func (s *Server) MarshalState() ([]byte, error) { return s.eng.MarshalState() }

// RestoreState reloads state produced by MarshalState on a server built
// with the same mechanism and parameters. Call it on a fresh server;
// restoring is equivalent to replaying the original ingestion, so
// estimates afterwards are bit-for-bit those of the snapshotted server.
func (s *Server) RestoreState(state []byte) error { return s.eng.RestoreState(state) }
