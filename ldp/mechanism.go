package ldp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Capabilities is the metadata a Mechanism declares about itself; the
// registry and the service layer use it to decide what a mechanism can
// be asked to do.
type Capabilities struct {
	// ErrorBound: a closed-form high-probability ℓ∞ error bound is
	// available (Mechanism.ErrorBound is set).
	ErrorBound bool
	// Sharded: the mechanism's server state is the standard dyadic
	// accumulator, so rtf-serve can host it on the sharded ingestion
	// path and answer queries from live counters.
	Sharded bool
	// Durable: the mechanism's server engine implements Snapshotter and
	// Restorer, so its state survives restarts via the persistence
	// subsystem (snapshot + write-ahead log).
	Durable bool
	// Clustered: the mechanism's server state is additive integer
	// counters (the dyadic accumulator), so partial states from N
	// partitioned rtf-serve backends merge — as raw sums, not scaled
	// floats — into answers bit-for-bit identical to one serial server.
	// rtf-gateway hosts only clustered mechanisms. Implies Sharded.
	Clustered bool
	// Domain: the mechanism supports the richer-domain reduction
	// (Section 1): its streaming clients can track the item-indicator
	// stream and its server state is the standard dyadic accumulator,
	// so a DomainServer can run one instance per item and scale
	// estimates by m. Implies Sharded.
	Domain bool
	// HashedDomain: the mechanism supports hashed domain encodings
	// (LOLOHA): its clients can track the bucket-indicator stream
	// 1{B(v) = b} exactly as they track an item indicator, so the
	// reduction runs over g hash buckets instead of m items and server
	// memory scales with g. Implies Domain — a hashed encoding is a
	// domain reduction whose rows are buckets.
	HashedDomain bool
}

// Params carries the protocol parameters shared by a mechanism's
// clients and server. D is the horizon (a power of two: the ldp
// constructors check it before they call a factory), K the per-user
// sparsity bound, Eps the privacy budget. Clip enables client-side
// change clipping (framework mechanisms only); Seed seeds server-side
// noise for mechanisms that draw any (the central baseline).
type Params struct {
	D, K int
	Eps  float64
	Clip bool
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
}

// ClientBuilder stamps out per-user client engines sharing the
// mechanism's parameter tables (for FutureRand, the one-time exact
// annulus computation).
type ClientBuilder func(user int, seed int64) (ClientEngine, error)

// Mechanism is one registered protocol: capability metadata plus the
// client and server factories the streaming API dispatches to. The six paper protocols are
// registered at init; external packages may Register additional
// mechanisms under new Protocol names.
type Mechanism struct {
	// Protocol is the registry key.
	Protocol Protocol
	// Description is a one-line summary for listings.
	Description string
	// Caps declares what the mechanism supports.
	Caps Capabilities
	// Clients returns a per-user client factory for the parameters.
	// Required.
	Clients func(p Params) (ClientBuilder, error)
	// Server returns a fresh server engine for the parameters.
	// Required.
	Server func(p Params) (ServerEngine, error)
	// EstimatorScale returns the dyadic accumulator's estimator scale
	// for the parameters. Required when Caps.Sharded; rtf-serve uses it
	// to host the mechanism on the sharded ingestion path.
	EstimatorScale func(p Params) (float64, error)
	// ErrorBound returns the closed-form high-probability ℓ∞ bound at
	// failure probability beta. Required when Caps.ErrorBound.
	ErrorBound func(n, d, k int, eps, beta float64) (float64, error)
}

var (
	regMu     sync.RWMutex
	mechanism = map[Protocol]Mechanism{}
)

// Register adds a mechanism to the registry. It fails on an empty or
// duplicate protocol name and on factories missing for the declared
// capabilities.
func Register(m Mechanism) error {
	if m.Protocol == "" {
		return errors.New("ldp: mechanism with empty protocol name")
	}
	if m.Clients == nil || m.Server == nil {
		return fmt.Errorf("ldp: mechanism %q missing client or server factory", m.Protocol)
	}
	if m.Caps.Sharded && m.EstimatorScale == nil {
		return fmt.Errorf("ldp: sharded mechanism %q missing estimator scale", m.Protocol)
	}
	if m.Caps.Clustered && !m.Caps.Sharded {
		return fmt.Errorf("ldp: clustered mechanism %q must be sharded (the gateway scatters over rtf-serve backends)", m.Protocol)
	}
	if m.Caps.Domain && !m.Caps.Sharded {
		return fmt.Errorf("ldp: domain mechanism %q must be sharded (the reduction runs per-item dyadic accumulators)", m.Protocol)
	}
	if m.Caps.HashedDomain && !m.Caps.Domain {
		return fmt.Errorf("ldp: hashed-domain mechanism %q must support the domain reduction (a hashed encoding is a domain reduction over buckets)", m.Protocol)
	}
	if m.Caps.ErrorBound && m.ErrorBound == nil {
		return fmt.Errorf("ldp: mechanism %q declares an error bound but provides none", m.Protocol)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := mechanism[m.Protocol]; dup {
		return fmt.Errorf("ldp: mechanism %q already registered", m.Protocol)
	}
	mechanism[m.Protocol] = m
	return nil
}

// MustRegister is Register, panicking on error (for init-time use).
func MustRegister(m Mechanism) {
	if err := Register(m); err != nil {
		panic(err)
	}
}

// Lookup finds a registered mechanism.
func Lookup(p Protocol) (Mechanism, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	m, ok := mechanism[p]
	return m, ok
}

// Mechanisms returns every registered mechanism, sorted by protocol
// name.
func Mechanisms() []Mechanism {
	regMu.RLock()
	out := make([]Mechanism, 0, len(mechanism))
	for _, m := range mechanism {
		out = append(out, m)
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Protocol < out[j].Protocol })
	return out
}

// lookupErr is Lookup with the standard unknown-mechanism error.
func lookupErr(p Protocol) (Mechanism, error) {
	m, ok := Lookup(p)
	if !ok {
		return Mechanism{}, fmt.Errorf("ldp: unknown protocol %q", p)
	}
	return m, nil
}
