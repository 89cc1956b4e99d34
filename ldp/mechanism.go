package ldp

import (
	"fmt"
	"slices"
)

// Params carries the protocol parameters shared by a mechanism's
// clients and server. D is the horizon (a power of two: the ldp
// constructors check it before they call a factory), K the per-user
// sparsity bound, Eps the privacy budget, Seed the seed of server-side
// noise for mechanisms that draw any (the central baseline). A client
// must accept any stream: the framework clients clip theirs at K, the
// K-th change's value held from then on.
type Params struct {
	D, K int
	Eps  float64
	Seed int64
}

// ClientEngine is the mechanism-side implementation behind a streaming
// Client: it announces a sampled order and converts one Boolean value
// per period into an occasional wire report. The built-in dyadic
// mechanisms return their protocol-layer client as the engine, so
// Client.Observe is one dispatch away from the state it updates.
type ClientEngine interface {
	// Order returns the client's announced order h_u (0 for
	// mechanisms without order sampling).
	Order() int
	// Observe consumes the user's value for the next period.
	Observe(value bool) (Report, bool)
}

// ServerEngine is the mechanism-side implementation behind a streaming
// Server. Register and Ingest validate mechanism-specific invariants
// (order ranges, index ranges); the estimate methods may assume their
// arguments were range-checked by the public Server.
type ServerEngine interface {
	Register(order int) error
	Ingest(r Report) error
	EstimateAt(t int) float64
	EstimateSeries() []float64
	// EstimateSeriesTo returns â[1..r] — the same values as the first r
	// entries of EstimateSeries, so short window queries need not pay
	// for the full horizon.
	EstimateSeriesTo(r int) []float64
	EstimateChange(l, r int) float64
	Users() int
	// MarshalState serializes the accumulated state for a durable
	// snapshot. The payload is versioned and self-validating: restoring
	// it into an engine with different parameters fails rather than
	// mis-scaling.
	MarshalState() ([]byte, error)
	// RestoreState folds a MarshalState payload into a freshly built
	// engine. It fails, without modifying the engine, on version or
	// configuration mismatches and on malformed input; it never panics.
	RestoreState(state []byte) error
}

// ClientBuilder stamps out per-user client engines sharing the
// mechanism's parameter tables (for FutureRand, the one-time exact
// annulus computation).
type ClientBuilder func(user int, seed int64) (ClientEngine, error)

// Mechanism is one protocol of the paper: a client factory and one
// server declaration, which the streaming API dispatches to. The six
// built-in protocols are the whole table (Lookup, Mechanisms).
//
// Every client takes every stream. FutureRand, Independent and Bun
// clip theirs at K, freezing the effective stream after its K-th
// change; Erlingsson keeps one of the first K changes, uniformly, so
// its ×K estimator counts the K-clipped stream; the naive split has no
// K. The central baseline's clients send raw values to a trusted
// curator, whose noise scale Δ = K·(1+log₂ D) assumes the bound.
//
// What a mechanism can be served on follows from what it provides. A
// mechanism that sets EstimatorScale is dyadic (Dyadic): its server is
// the paper's Algorithm 2 accumulator at that scale, so rtf-serve hosts
// it on the sharded accumulator, rtf-gateway merges it across machines,
// and the domain constructors run it per item or bucket. A mechanism
// that sets Server instead is served only in process, by NewServer.
type Mechanism struct {
	// Protocol is the table key.
	Protocol Protocol
	// Description is a one-line summary for listings.
	Description string
	// Clients returns a per-user client factory for the parameters.
	// Required.
	Clients func(p Params) (ClientBuilder, error)
	// EstimatorScale returns the dyadic accumulator's estimator scale
	// (Algorithm 2, line 5) for the parameters. Set exactly one of
	// EstimatorScale and Server.
	EstimatorScale func(p Params) (float64, error)
	// Server returns a fresh server engine for the parameters, for a
	// mechanism whose server is not the dyadic accumulator.
	Server func(p Params) (ServerEngine, error)
	// ErrorBound returns the closed-form high-probability ℓ∞ bound at
	// failure probability beta; nil when the mechanism has none.
	ErrorBound func(n, d, k int, eps, beta float64) (float64, error)
}

// Dyadic reports whether m's server is the dyadic accumulator: the one
// predicate behind what rtf-serve, rtf-gateway, rtf-sim's server
// scenarios and the domain constructors accept.
func (m Mechanism) Dyadic() bool { return m.EstimatorScale != nil }

// newServer builds m's server engine: the dyadic accumulator at
// EstimatorScale's scale, or whatever Server returns.
func (m Mechanism) newServer(p Params) (ServerEngine, error) {
	if !m.Dyadic() {
		return m.Server(p)
	}
	scale, err := m.EstimatorScale(p)
	if err != nil {
		return nil, err
	}
	return newDyadicEngine(p.D, scale), nil
}

// Lookup finds a built-in mechanism.
func Lookup(p Protocol) (Mechanism, bool) {
	for _, m := range mechanisms {
		if m.Protocol == p {
			return m, true
		}
	}
	return Mechanism{}, false
}

// Mechanisms returns every built-in mechanism, sorted by protocol name.
func Mechanisms() []Mechanism { return slices.Clone(mechanisms) }

// lookupErr is Lookup with the standard unknown-mechanism error.
func lookupErr(p Protocol) (Mechanism, error) {
	m, ok := Lookup(p)
	if !ok {
		return Mechanism{}, fmt.Errorf("ldp: unknown protocol %q", p)
	}
	return m, nil
}
