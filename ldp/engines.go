package ldp

import (
	"errors"
	"fmt"

	"rtf/internal/central"
	"rtf/internal/dyadic"
	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// This file implements the built-in mechanisms: the engine adapters that
// put every protocol of the paper behind the same streaming Client and
// Server shape, and the init-time registration wiring them into the
// registry.

func init() {
	MustRegister(Mechanism{
		Protocol:    FutureRand,
		Description: "the paper's protocol (Theorem 4.1): error O((1/ε)·log d·√(k·n·log(d/β)))",
		Caps:        Capabilities{ErrorBound: true, Sharded: true, Durable: true, Clustered: true, Domain: true, HashedDomain: true},
		Clients:     frameworkClients(protocol.FutureRand),
		Server:      frameworkServer(protocol.FutureRand),
		EstimatorScale: func(p Params) (float64, error) {
			return protocol.FutureRand.Scale(p.D, p.K, p.Eps)
		},
		ErrorBound: ErrorBound,
	})
	MustRegister(Mechanism{
		Protocol:    Independent,
		Description: "Example 4.2's ε/k composition: error linear in k",
		Caps:        Capabilities{Sharded: true, Durable: true, Clustered: true, Domain: true, HashedDomain: true},
		Clients:     frameworkClients(protocol.Independent),
		Server:      frameworkServer(protocol.Independent),
		EstimatorScale: func(p Params) (float64, error) {
			return protocol.Independent.Scale(p.D, p.K, p.Eps)
		},
	})
	MustRegister(Mechanism{
		Protocol:    Bun,
		Description: "the Bun–Nelson–Stemmer composition made online: √ln(k/ε) worse than FutureRand",
		Caps:        Capabilities{Sharded: true, Durable: true, Clustered: true, Domain: true, HashedDomain: true},
		Clients:     frameworkClients(protocol.Bun),
		Server:      frameworkServer(protocol.Bun),
		EstimatorScale: func(p Params) (float64, error) {
			return protocol.Bun.Scale(p.D, p.K, p.Eps)
		},
	})
	MustRegister(Mechanism{
		Protocol:       Erlingsson,
		Description:    "the 2020 change-sampling baseline: one kept change, RR at ε/2, ×k estimator",
		Caps:           Capabilities{Sharded: true, Durable: true, Clustered: true, Domain: true, HashedDomain: true},
		Clients:        erlingssonClients,
		Server:         erlingssonServer,
		EstimatorScale: erlingssonScale,
	})
	MustRegister(Mechanism{
		Protocol:    NaiveSplit,
		Description: "a fresh randomized response per period at budget ε/d: error linear in d",
		Caps:        Capabilities{Durable: true},
		Clients:     naiveClients,
		Server:      naiveServer,
	})
	MustRegister(Mechanism{
		Protocol:    CentralBinary,
		Description: "the trusted-curator binary mechanism (Section 6), for central-vs-local comparisons",
		Caps:        Capabilities{Durable: true},
		Clients:     centralClients,
		Server:      centralServer,
	})
}

// ---------------------------------------------------------------------------
// Client engines.

// frameworkClients builds per-user framework clients sharing one factory
// table (and so one annulus computation) across all users.
func frameworkClients(kind protocol.RandomizerKind) func(p Params) (ClientBuilder, error) {
	return func(p Params) (ClientBuilder, error) {
		factories, err := kind.Factories(p.D, p.K, p.Eps)
		if err != nil {
			return nil, err
		}
		d, clipK := p.D, 0
		if p.Clip {
			clipK = p.K
		}
		return func(user int, seed int64) (ClientEngine, error) {
			if user < 0 {
				return nil, fmt.Errorf("ldp: negative user id %d", user)
			}
			return protocol.NewSeededClient(user, d, clipK, factories, seed), nil
		}, nil
	}
}

func erlingssonClients(p Params) (ClientBuilder, error) {
	if p.Clip {
		return nil, errors.New("ldp: clipping applies to framework mechanisms only")
	}
	if p.K < 1 {
		return nil, fmt.Errorf("ldp: sparsity bound %d < 1", p.K)
	}
	factories, err := protocol.ErlingssonFactories(p.D, p.Eps)
	if err != nil {
		return nil, err
	}
	d, k := p.D, p.K
	return func(user int, seed int64) (ClientEngine, error) {
		if user < 0 {
			return nil, fmt.Errorf("ldp: negative user id %d", user)
		}
		return protocol.NewSeededErlingssonClient(user, d, k, factories, seed), nil
	}, nil
}

// naiveClientEngine adapts the per-period NaiveSplitClient: every period
// reports, at order 0, the randomized response for that period.
type naiveClientEngine struct{ inner *protocol.NaiveSplitClient }

func (naiveClientEngine) Order() int { return 0 }

func (c naiveClientEngine) Observe(value bool) (Report, bool) {
	var v uint8
	if value {
		v = 1
	}
	r := c.inner.Observe(v)
	return Report{User: r.User, Order: 0, J: r.T, Bit: r.Bit}, true
}

func naiveClients(p Params) (ClientBuilder, error) {
	if p.Clip {
		return nil, errors.New("ldp: clipping applies to framework mechanisms only")
	}
	if !(p.Eps > 0) {
		return nil, fmt.Errorf("ldp: epsilon %v must be positive", p.Eps)
	}
	d, eps := p.D, p.Eps
	return func(user int, seed int64) (ClientEngine, error) {
		if user < 0 {
			return nil, fmt.Errorf("ldp: negative user id %d", user)
		}
		return naiveClientEngine{protocol.NewNaiveSplitClient(user, d, eps, rng.NewFromSeed(seed))}, nil
	}, nil
}

func centralClients(p Params) (ClientBuilder, error) {
	if p.Clip {
		return nil, errors.New("ldp: clipping applies to framework mechanisms only")
	}
	d := p.D
	return func(user int, seed int64) (ClientEngine, error) {
		if user < 0 {
			return nil, fmt.Errorf("ldp: negative user id %d", user)
		}
		return central.NewClient(user, d), nil
	}, nil
}

// ---------------------------------------------------------------------------
// Server engines.

// dyadicEngine wraps the standard dyadic-accumulator server used by the
// framework mechanisms and the Erlingsson baseline; only the estimator
// scale differs between them.
type dyadicEngine struct {
	inner    *protocol.Server
	maxOrder int
}

func newDyadicEngine(d int, scale float64) *dyadicEngine {
	return &dyadicEngine{inner: protocol.NewServer(d, scale), maxOrder: dyadic.Log2(d)}
}

func (e *dyadicEngine) Register(order int) error {
	if order < 0 || order > e.maxOrder {
		return fmt.Errorf("ldp: order %d out of range [0..%d]", order, e.maxOrder)
	}
	e.inner.Register(order)
	return nil
}

func (e *dyadicEngine) Ingest(r Report) error {
	if r.Order < 0 || r.Order > e.maxOrder {
		return fmt.Errorf("ldp: report order %d out of range", r.Order)
	}
	if r.J < 1 || r.J > e.inner.D()>>uint(r.Order) {
		return fmt.Errorf("ldp: report index %d out of range for order %d", r.J, r.Order)
	}
	e.inner.Ingest(r)
	return nil
}

// MarshalState implements Snapshotter via the dyadic accumulator's
// shared state encoding.
func (e *dyadicEngine) MarshalState() ([]byte, error) { return e.inner.MarshalState(), nil }

// RestoreState implements Restorer; the payload's horizon and scale
// must match this engine's.
func (e *dyadicEngine) RestoreState(state []byte) error { return e.inner.RestoreState(state) }

func (e *dyadicEngine) EstimateAt(t int) float64         { return e.inner.EstimateAt(t) }
func (e *dyadicEngine) EstimateSeries() []float64        { return e.inner.EstimateSeries() }
func (e *dyadicEngine) EstimateSeriesTo(r int) []float64 { return e.inner.EstimateSeriesTo(r) }
func (e *dyadicEngine) EstimateChange(l, r int) float64  { return e.inner.EstimateChange(l, r) }
func (e *dyadicEngine) Users() int                       { return e.inner.Users() }

func frameworkServer(kind protocol.RandomizerKind) func(p Params) (ServerEngine, error) {
	return func(p Params) (ServerEngine, error) {
		scale, err := kind.Scale(p.D, p.K, p.Eps)
		if err != nil {
			return nil, err
		}
		return newDyadicEngine(p.D, scale), nil
	}
}

func erlingssonScale(p Params) (float64, error) {
	if p.K < 1 {
		return 0, fmt.Errorf("ldp: sparsity bound %d < 1", p.K)
	}
	if !(p.Eps > 0) {
		return 0, fmt.Errorf("ldp: epsilon %v must be positive", p.Eps)
	}
	return protocol.ErlingssonScale(p.D, p.K, p.Eps), nil
}

func erlingssonServer(p Params) (ServerEngine, error) {
	scale, err := erlingssonScale(p)
	if err != nil {
		return nil, err
	}
	return newDyadicEngine(p.D, scale), nil
}

// naiveEngine serves the per-period randomized-response baseline: all
// reports arrive at order 0 with J = t, and range changes are estimated
// by differencing per-period estimates (there is no dyadic structure to
// cover a range directly). The embedded server answers EstimateAt,
// EstimateSeries and Users, and restores state (Restorer; the payload's
// horizon and c_gap, which pins the per-report budget ε/d, must match).
type naiveEngine struct {
	*protocol.NaiveSplitServer
	d int
}

func naiveServer(p Params) (ServerEngine, error) {
	if !(p.Eps > 0) {
		return nil, fmt.Errorf("ldp: epsilon %v must be positive", p.Eps)
	}
	return &naiveEngine{protocol.NewNaiveSplitServer(p.D, p.Eps), p.D}, nil
}

func (e *naiveEngine) Register(order int) error {
	if order != 0 {
		return fmt.Errorf("ldp: naive-split clients announce order 0, got %d", order)
	}
	e.NaiveSplitServer.Register()
	return nil
}

func (e *naiveEngine) Ingest(r Report) error {
	if r.Order != 0 {
		return fmt.Errorf("ldp: naive-split reports carry order 0, got %d", r.Order)
	}
	if r.J < 1 || r.J > e.d {
		return fmt.Errorf("ldp: report period %d out of range [1..%d]", r.J, e.d)
	}
	e.NaiveSplitServer.Ingest(protocol.NaiveReport{User: r.User, T: r.J, Bit: r.Bit})
	return nil
}

// MarshalState implements Snapshotter over the per-period sums.
func (e *naiveEngine) MarshalState() ([]byte, error) { return e.NaiveSplitServer.MarshalState(), nil }

func (e *naiveEngine) EstimateSeriesTo(r int) []float64 {
	out := make([]float64, r)
	for t := 1; t <= r; t++ {
		out[t-1] = e.EstimateAt(t)
	}
	return out
}

func (e *naiveEngine) EstimateChange(l, r int) float64 {
	est := e.EstimateAt(r)
	if l > 1 {
		est -= e.EstimateAt(l - 1)
	}
	return est
}

// centralServer is the trusted curator, seeded by WithSeed: its noise
// table is a function of (seed, d, k, eps), so a server rebuilt with the
// same options restores a snapshot bit-for-bit.
func centralServer(p Params) (ServerEngine, error) {
	c, err := central.BinaryMechanism{D: p.D, K: p.K, Eps: p.Eps}.NewCurator(rng.NewFromSeed(p.Seed))
	if err != nil {
		return nil, err
	}
	return c, nil
}
