package ldp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"rtf/internal/dyadic"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/sim"
	"rtf/workload"
)

// This file implements the built-in mechanisms: the engine adapters that
// put every protocol of the paper behind the same streaming Client and
// Server shape, and the init-time registration wiring them into the
// registry.

func init() {
	MustRegister(Mechanism{
		Protocol:    FutureRand,
		Description: "the paper's protocol (Theorem 4.1): error O((1/ε)·log d·√(k·n·log(d/β)))",
		Caps:        Capabilities{Streaming: true, Consistency: true, ErrorBound: true, Sharded: true, Durable: true, Clustered: true, Domain: true, HashedDomain: true},
		Clients:     frameworkClients(sim.FutureRand),
		Server:      frameworkServer(sim.FutureRand),
		System:      frameworkSystem(sim.FutureRand),
		EstimatorScale: func(p Params) (float64, error) {
			return sim.FutureRand.Scale(p.D, p.K, p.Eps)
		},
		ErrorBound: ErrorBound,
	})
	MustRegister(Mechanism{
		Protocol:    Independent,
		Description: "Example 4.2's ε/k composition: error linear in k",
		Caps:        Capabilities{Streaming: true, Consistency: true, Sharded: true, Durable: true, Clustered: true, Domain: true, HashedDomain: true},
		Clients:     frameworkClients(sim.Independent),
		Server:      frameworkServer(sim.Independent),
		System:      frameworkSystem(sim.Independent),
		EstimatorScale: func(p Params) (float64, error) {
			return sim.Independent.Scale(p.D, p.K, p.Eps)
		},
	})
	MustRegister(Mechanism{
		Protocol:    Bun,
		Description: "the Bun–Nelson–Stemmer composition made online: √ln(k/ε) worse than FutureRand",
		Caps:        Capabilities{Streaming: true, Consistency: true, Sharded: true, Durable: true, Clustered: true, Domain: true, HashedDomain: true},
		Clients:     frameworkClients(sim.Bun),
		Server:      frameworkServer(sim.Bun),
		System:      frameworkSystem(sim.Bun),
		EstimatorScale: func(p Params) (float64, error) {
			return sim.Bun.Scale(p.D, p.K, p.Eps)
		},
	})
	MustRegister(Mechanism{
		Protocol:    Erlingsson,
		Description: "the 2020 change-sampling baseline: one kept change, RR at ε/2, ×k estimator",
		Caps:        Capabilities{Streaming: true, Sharded: true, Durable: true, Clustered: true, Domain: true, HashedDomain: true},
		Clients:     erlingssonClients,
		Server:      erlingssonServer,
		System: baselineSystem(func(o Options) sim.System {
			return sim.Erlingsson{Eps: o.Epsilon, Fast: !o.Exact}
		}),
		EstimatorScale: erlingssonScale,
	})
	MustRegister(Mechanism{
		Protocol:    NaiveSplit,
		Description: "a fresh randomized response per period at budget ε/d: error linear in d",
		Caps:        Capabilities{Streaming: true, Durable: true},
		Clients:     naiveClients,
		Server:      naiveServer,
		System: baselineSystem(func(o Options) sim.System {
			return sim.NaiveSplit{Eps: o.Epsilon, Fast: !o.Exact}
		}),
	})
	MustRegister(Mechanism{
		Protocol:    CentralBinary,
		Description: "the trusted-curator binary mechanism (Section 6), for central-vs-local comparisons",
		Caps:        Capabilities{Streaming: true, Durable: true},
		Clients:     centralClients,
		Server:      centralServer,
		System: baselineSystem(func(o Options) sim.System {
			return sim.Central{Eps: o.Epsilon}
		}),
	})
}

// checkStreamParams validates the parameters common to every streaming
// mechanism. Epsilon and sparsity are validated by the mechanism's own
// parameter computation, which knows its exact constraints.
func checkStreamParams(p Params) error {
	if !dyadic.IsPow2(p.D) {
		return fmt.Errorf("ldp: d=%d is not a power of two", p.D)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Batch systems (the Track path).

// simSystem adapts an internal sim.System to the public System shape.
type simSystem struct{ inner sim.System }

func (s simSystem) Name() string { return s.inner.Name() }

func (s simSystem) Run(w *workload.Workload, seed int64) ([]float64, error) {
	return s.inner.Run(w, rng.NewFromSeed(seed))
}

// frameworkSystem builds the batch engine for the paper's framework with
// the given randomizer kind, honoring the Exact/Workers/Consistency
// options.
func frameworkSystem(kind sim.RandomizerKind) func(o Options) (System, error) {
	return func(o Options) (System, error) {
		if o.Workers != 0 && o.Exact {
			return nil, errors.New("ldp: Workers requires the fast engine")
		}
		fw := sim.Framework{Kind: kind, Eps: o.Epsilon, Fast: !o.Exact, Workers: o.Workers}
		if o.Consistency {
			return simSystem{sim.Consistent{Framework: fw}}, nil
		}
		return simSystem{fw}, nil
	}
}

// baselineSystem builds the batch engine for a non-framework mechanism,
// which supports neither consistency post-processing nor the sharded
// fast engine's Workers option.
func baselineSystem(mk func(o Options) sim.System) func(o Options) (System, error) {
	return func(o Options) (System, error) {
		if o.Consistency {
			return nil, errors.New("ldp: consistency post-processing applies to framework protocols only")
		}
		return simSystem{mk(o)}, nil
	}
}

// ---------------------------------------------------------------------------
// Client engines.

// frameworkClients builds per-user framework clients sharing one factory
// table (and so one annulus computation) across all users.
func frameworkClients(kind sim.RandomizerKind) func(p Params) (ClientBuilder, error) {
	return func(p Params) (ClientBuilder, error) {
		if err := checkStreamParams(p); err != nil {
			return nil, err
		}
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
	if err := checkStreamParams(p); err != nil {
		return nil, err
	}
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
	if err := checkStreamParams(p); err != nil {
		return nil, err
	}
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

// centralClientEngine reports the true value in the clear — the central
// model's trusted-curator assumption made explicit as a client that does
// not randomize.
type centralClientEngine struct {
	user, d, t int
}

func (c *centralClientEngine) Order() int { return 0 }

func (c *centralClientEngine) Observe(value bool) (Report, bool) {
	c.t++
	if c.t > c.d {
		panic("ldp: more observations than time periods")
	}
	bit := int8(-1)
	if value {
		bit = 1
	}
	return Report{User: c.user, Order: 0, J: c.t, Bit: bit}, true
}

func centralClients(p Params) (ClientBuilder, error) {
	if err := checkStreamParams(p); err != nil {
		return nil, err
	}
	if p.Clip {
		return nil, errors.New("ldp: clipping applies to framework mechanisms only")
	}
	d := p.D
	return func(user int, seed int64) (ClientEngine, error) {
		if user < 0 {
			return nil, fmt.Errorf("ldp: negative user id %d", user)
		}
		return &centralClientEngine{user: user, d: d}, nil
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

func frameworkServer(kind sim.RandomizerKind) func(p Params) (ServerEngine, error) {
	return func(p Params) (ServerEngine, error) {
		if err := checkStreamParams(p); err != nil {
			return nil, err
		}
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
	if err := checkStreamParams(p); err != nil {
		return nil, err
	}
	scale, err := erlingssonScale(p)
	if err != nil {
		return nil, err
	}
	return newDyadicEngine(p.D, scale), nil
}

// naiveEngine serves the per-period randomized-response baseline: all
// reports arrive at order 0 with J = t, and range changes are estimated
// by differencing per-period estimates (there is no dyadic structure to
// cover a range directly).
type naiveEngine struct {
	inner *protocol.NaiveSplitServer
	d     int
}

func naiveServer(p Params) (ServerEngine, error) {
	if err := checkStreamParams(p); err != nil {
		return nil, err
	}
	if !(p.Eps > 0) {
		return nil, fmt.Errorf("ldp: epsilon %v must be positive", p.Eps)
	}
	return &naiveEngine{inner: protocol.NewNaiveSplitServer(p.D, p.Eps), d: p.D}, nil
}

func (e *naiveEngine) Register(order int) error {
	if order != 0 {
		return fmt.Errorf("ldp: naive-split clients announce order 0, got %d", order)
	}
	e.inner.Register()
	return nil
}

func (e *naiveEngine) Ingest(r Report) error {
	if r.Order != 0 {
		return fmt.Errorf("ldp: naive-split reports carry order 0, got %d", r.Order)
	}
	if r.J < 1 || r.J > e.d {
		return fmt.Errorf("ldp: report period %d out of range [1..%d]", r.J, e.d)
	}
	e.inner.Ingest(protocol.NaiveReport{User: r.User, T: r.J, Bit: r.Bit})
	return nil
}

// MarshalState implements Snapshotter over the per-period sums.
func (e *naiveEngine) MarshalState() ([]byte, error) { return e.inner.MarshalState(), nil }

// RestoreState implements Restorer; the payload's horizon and c_gap
// (which pins the per-report budget ε/d) must match this engine's.
func (e *naiveEngine) RestoreState(state []byte) error { return e.inner.RestoreState(state) }

func (e *naiveEngine) EstimateAt(t int) float64  { return e.inner.EstimateAt(t) }
func (e *naiveEngine) EstimateSeries() []float64 { return e.inner.EstimateSeries() }

func (e *naiveEngine) EstimateSeriesTo(r int) []float64 {
	out := make([]float64, r)
	for t := 1; t <= r; t++ {
		out[t-1] = e.inner.EstimateAt(t)
	}
	return out
}

func (e *naiveEngine) EstimateChange(l, r int) float64 {
	est := e.inner.EstimateAt(r)
	if l > 1 {
		est -= e.inner.EstimateAt(l - 1)
	}
	return est
}

func (e *naiveEngine) Users() int { return e.inner.Users() }

// centralEngine is the streaming shape of the trusted-curator binary
// mechanism: clients report true values, the curator accumulates exact
// per-period counts, and every dyadic node carries one fixed
// Laplace(∆/ε) noise draw (∆ = k·(1+log₂ d), user-level sensitivity)
// fixed at construction from the seed, so repeated queries are
// consistent and runs are reproducible.
type centralEngine struct {
	d     int
	users int
	sums  []int64 // Σ of ±1 true-value bits per period
	tree  *dyadic.Tree
	noise []float64 // per-node Laplace noise, drawn once
}

func centralServer(p Params) (ServerEngine, error) {
	if err := checkStreamParams(p); err != nil {
		return nil, err
	}
	if !(p.Eps > 0) {
		return nil, fmt.Errorf("ldp: epsilon %v must be positive", p.Eps)
	}
	if p.K < 1 {
		return nil, fmt.Errorf("ldp: sparsity bound %d < 1", p.K)
	}
	tr := dyadic.NewTree(p.D)
	b := float64(p.K) * float64(1+dyadic.Log2(p.D)) / p.Eps
	g := rng.NewFromSeed(p.Seed)
	noise := make([]float64, tr.Size())
	for i := range noise {
		noise[i] = g.Laplace(b)
	}
	return &centralEngine{
		d:     p.D,
		sums:  make([]int64, p.D),
		tree:  tr,
		noise: noise,
	}, nil
}

func (e *centralEngine) Register(order int) error {
	if order != 0 {
		return fmt.Errorf("ldp: central clients announce order 0, got %d", order)
	}
	e.users++
	return nil
}

func (e *centralEngine) Ingest(r Report) error {
	if r.Order != 0 {
		return fmt.Errorf("ldp: central reports carry order 0, got %d", r.Order)
	}
	if r.J < 1 || r.J > e.d {
		return fmt.Errorf("ldp: report period %d out of range [1..%d]", r.J, e.d)
	}
	e.sums[r.J-1] += int64(r.Bit)
	return nil
}

// count returns the exact number of users at value 1 at time t, assuming
// every registered user has reported for time t (the same online
// contract as the local mechanisms: estimates at t are valid once all
// reports for times ≤ t arrived).
func (e *centralEngine) count(t int) float64 {
	return (float64(e.users) + float64(e.sums[t-1])) / 2
}

// nodeValue returns the noisy interval sum S(I) + Lap(∆/ε).
func (e *centralEngine) nodeValue(iv dyadic.Interval) float64 {
	var left float64
	if s := iv.Start(); s > 1 {
		left = e.count(s - 1)
	}
	return e.count(iv.End()) - left + e.noise[e.tree.FlatIndex(iv)]
}

func (e *centralEngine) EstimateAt(t int) float64 {
	var est float64
	for _, iv := range dyadic.Decompose(t, e.d) {
		est += e.nodeValue(iv)
	}
	return est
}

func (e *centralEngine) EstimateSeries() []float64 {
	return e.EstimateSeriesTo(e.d)
}

func (e *centralEngine) EstimateSeriesTo(r int) []float64 {
	out := make([]float64, r)
	for t := 1; t <= r; t++ {
		out[t-1] = e.EstimateAt(t)
	}
	return out
}

func (e *centralEngine) EstimateChange(l, r int) float64 {
	var est float64
	for _, iv := range dyadic.DecomposeRange(l, r, e.d) {
		est += e.nodeValue(iv)
	}
	return est
}

func (e *centralEngine) Users() int { return e.users }

// centralStateVersion versions the central engine's snapshot payload:
// the exact per-period sums and the user count. The per-node noise is
// not serialized — it is a pure function of the construction parameters
// (seed, d, k, eps), so an engine rebuilt with the same WithSeed
// options regenerates it and restored answers stay bit-for-bit. A
// checksum of the noise table travels with the state, so restoring into
// an engine built under different parameters (any of which change the
// noise) fails instead of silently answering differently.
const centralStateVersion = 1

// noiseChecksum fingerprints the engine's fixed per-node noise draws.
func (e *centralEngine) noiseChecksum() uint32 {
	crc := crc32.NewIEEE()
	var raw [8]byte
	for _, v := range e.noise {
		binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
		crc.Write(raw[:])
	}
	return crc.Sum32()
}

// MarshalState implements Snapshotter.
func (e *centralEngine) MarshalState() ([]byte, error) {
	b := make([]byte, 0, 16+10*len(e.sums))
	b = append(b, centralStateVersion)
	b = binary.AppendUvarint(b, uint64(e.d))
	b = binary.LittleEndian.AppendUint32(b, e.noiseChecksum())
	b = binary.AppendVarint(b, int64(e.users))
	for _, v := range e.sums {
		b = binary.AppendVarint(b, v)
	}
	return b, nil
}

// RestoreState implements Restorer; the payload's horizon must match.
func (e *centralEngine) RestoreState(state []byte) error {
	if len(state) < 1 {
		return errors.New("ldp: central state truncated at version")
	}
	if state[0] != centralStateVersion {
		return fmt.Errorf("ldp: unsupported central state version %d (this build reads version %d)", state[0], centralStateVersion)
	}
	off := 1
	d, n := binary.Uvarint(state[off:])
	if n <= 0 {
		return errors.New("ldp: central state truncated at horizon")
	}
	off += n
	if int(d) != e.d {
		return fmt.Errorf("ldp: central state has horizon d=%d, engine has d=%d", d, e.d)
	}
	if off+4 > len(state) {
		return errors.New("ldp: central state truncated at noise checksum")
	}
	if sum := binary.LittleEndian.Uint32(state[off:]); sum != e.noiseChecksum() {
		return fmt.Errorf("ldp: central state was snapshotted under different parameters (noise checksum %08x, engine has %08x): seed, epsilon and sparsity must all match", sum, e.noiseChecksum())
	}
	off += 4
	users, n := binary.Varint(state[off:])
	if n <= 0 {
		return errors.New("ldp: central state truncated at user count")
	}
	if users < 0 {
		return fmt.Errorf("ldp: central state has negative user count %d", users)
	}
	off += n
	sums := make([]int64, e.d)
	for t := range sums {
		v, n := binary.Varint(state[off:])
		if n <= 0 {
			return fmt.Errorf("ldp: central state truncated at period %d", t+1)
		}
		off += n
		sums[t] = v
	}
	if off != len(state) {
		return fmt.Errorf("ldp: %d trailing bytes after central state", len(state)-off)
	}
	e.users += int(users)
	for t, v := range sums {
		e.sums[t] += v
	}
	return nil
}
