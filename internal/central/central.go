// Package central implements the central-model baseline discussed in
// Section 6: the binary (hierarchical) mechanism of Dwork et al. and
// Chan et al. for continual release, run by a trusted curator who sees
// the true per-interval sums S(I_{h,j}) and publishes them with Laplace
// noise.
//
// For a like-for-like comparison with the local protocol, the mechanism
// provides user-level ε-DP: one user's entire longitudinal stream changes
// the collection of interval sums by at most ∆ = k·(1+log₂ d) in L1 (at
// most k non-zero partial sums per order, each of magnitude ≤ 1), so each
// node receives Laplace(∆/ε) noise. The resulting error is independent of
// n — the fundamental central-vs-local gap experiment E9 demonstrates.
//
// The trusted curator is Curator, an online server: clients report their
// true values in the clear (Client), the ldp central-binary mechanism
// serves it, and BinaryMechanism.Run is the offline loop over it.
package central

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"rtf/internal/dyadic"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/workload"
)

// BinaryMechanism releases â[1..d] under user-level ε-DP in the central
// model.
type BinaryMechanism struct {
	D, K int
	Eps  float64
}

// Sensitivity returns ∆ = k·(1+log₂ d), the L1 sensitivity of the full
// interval-sum tree to one user's stream.
func (m BinaryMechanism) Sensitivity() float64 {
	return float64(m.K) * float64(1+dyadic.Log2(m.D))
}

// Run computes the noisy estimate series for a workload. All randomness
// comes from g: it is the curator's noise table, drawn by NewCurator.
func (m BinaryMechanism) Run(w *workload.Workload, g *rng.RNG) ([]float64, error) {
	if w.D != m.D {
		return nil, fmt.Errorf("central: workload d=%d, mechanism d=%d", w.D, m.D)
	}
	c, err := m.NewCurator(g)
	if err != nil {
		return nil, err
	}
	// Every user reports every period, so the curator's ±1 sum at t is
	// 2·a[t] − n: the same state as ingesting each report one by one.
	c.users = len(w.Users)
	for t, a := range w.Truth() {
		c.sums[t] = int64(2*a - c.users)
	}
	return c.EstimateSeries(), nil
}

// Curator is the trusted curator of the binary mechanism, online: it
// accumulates exact per-period counts from clients that report their
// true values, and every dyadic node carries one Laplace(∆/ε) draw fixed
// at construction, so repeated queries are consistent and runs are
// reproducible.
type Curator struct {
	d     int
	users int
	sums  []int64 // Σ of ±1 true-value bits per period
	tree  *dyadic.Tree
	noise []float64 // per-node Laplace noise, in flat-index (dyadic.All) order
}

// NewCurator validates the parameters and draws the curator's noise
// table from g, one Laplace(∆/ε) value per dyadic node.
func (m BinaryMechanism) NewCurator(g *rng.RNG) (*Curator, error) {
	if !dyadic.IsPow2(m.D) {
		return nil, fmt.Errorf("central: d=%d is not a power of two", m.D)
	}
	if !(m.Eps > 0) {
		return nil, fmt.Errorf("central: eps=%v must be positive", m.Eps)
	}
	if m.K < 1 {
		return nil, fmt.Errorf("central: k=%d must be >= 1", m.K)
	}
	tr := dyadic.NewTree(m.D)
	scale := m.Sensitivity() / m.Eps
	noise := make([]float64, tr.Size())
	for i := range noise {
		noise[i] = g.Laplace(scale)
	}
	return &Curator{d: m.D, sums: make([]int64, m.D), tree: tr, noise: noise}, nil
}

// Register records one user; central clients announce order 0.
func (c *Curator) Register(order int) error {
	if order != 0 {
		return fmt.Errorf("central: clients announce order 0, got %d", order)
	}
	c.users++
	return nil
}

// Ingest adds one user's true ±1 value for period r.J.
func (c *Curator) Ingest(r protocol.Report) error {
	if r.Order != 0 {
		return fmt.Errorf("central: reports carry order 0, got %d", r.Order)
	}
	if r.J < 1 || r.J > c.d {
		return fmt.Errorf("central: report period %d out of range [1..%d]", r.J, c.d)
	}
	c.sums[r.J-1] += int64(r.Bit)
	return nil
}

// Users returns the number of registered users.
func (c *Curator) Users() int { return c.users }

// count returns the exact number of users at value 1 at time t, assuming
// every registered user has reported for time t (the same online
// contract as the local mechanisms: estimates at t are valid once all
// reports for times ≤ t arrived).
func (c *Curator) count(t int) float64 {
	return (float64(c.users) + float64(c.sums[t-1])) / 2
}

// nodeValue returns the noisy interval sum S(I) + Lap(∆/ε).
func (c *Curator) nodeValue(iv dyadic.Interval) float64 {
	var left float64
	if s := iv.Start(); s > 1 {
		left = c.count(s - 1)
	}
	return c.count(iv.End()) - left + c.noise[c.tree.FlatIndex(iv)]
}

// EstimateAt returns â[t], the sum of the noisy nodes covering [1..t].
func (c *Curator) EstimateAt(t int) float64 {
	var est float64
	for _, iv := range dyadic.Decompose(t, c.d) {
		est += c.nodeValue(iv)
	}
	return est
}

// EstimateSeries returns â[1..d].
func (c *Curator) EstimateSeries() []float64 { return c.EstimateSeriesTo(c.d) }

// EstimateSeriesTo returns â[1..r].
func (c *Curator) EstimateSeriesTo(r int) []float64 {
	out := make([]float64, r)
	for t := 1; t <= r; t++ {
		out[t-1] = c.EstimateAt(t)
	}
	return out
}

// EstimateChange returns the noisy a[r] − a[l−1] from the direct dyadic
// cover of [l..r].
func (c *Curator) EstimateChange(l, r int) float64 {
	var est float64
	for _, iv := range dyadic.DecomposeRange(l, r, c.d) {
		est += c.nodeValue(iv)
	}
	return est
}

// stateVersion versions the curator's snapshot payload: the exact
// per-period sums and the user count. The per-node noise is not
// serialized — it is a pure function of the construction parameters
// (seed, d, k, eps), so a curator rebuilt with the same parameters
// regenerates it and restored answers stay bit-for-bit. A checksum of
// the noise table travels with the state, so restoring into a curator
// built under different parameters (any of which change the noise)
// fails instead of silently answering differently.
const stateVersion = 1

// noiseChecksum fingerprints the curator's fixed per-node noise draws.
func (c *Curator) noiseChecksum() uint32 {
	crc := crc32.NewIEEE()
	var raw [8]byte
	for _, v := range c.noise {
		binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
		crc.Write(raw[:])
	}
	return crc.Sum32()
}

// MarshalState serializes the accumulated state.
func (c *Curator) MarshalState() ([]byte, error) {
	b := make([]byte, 0, 16+10*len(c.sums))
	b = append(b, stateVersion)
	b = binary.AppendUvarint(b, uint64(c.d))
	b = binary.LittleEndian.AppendUint32(b, c.noiseChecksum())
	b = binary.AppendVarint(b, int64(c.users))
	for _, v := range c.sums {
		b = binary.AppendVarint(b, v)
	}
	return b, nil
}

// RestoreState folds a MarshalState payload into the curator; the
// payload's horizon and noise checksum must match. It fails without
// modifying the curator.
func (c *Curator) RestoreState(state []byte) error {
	if len(state) < 1 {
		return errors.New("central: state truncated at version")
	}
	if state[0] != stateVersion {
		return fmt.Errorf("central: unsupported state version %d (this build reads version %d)", state[0], stateVersion)
	}
	off := 1
	d, n := binary.Uvarint(state[off:])
	if n <= 0 {
		return errors.New("central: state truncated at horizon")
	}
	off += n
	if int(d) != c.d {
		return fmt.Errorf("central: state has horizon d=%d, curator has d=%d", d, c.d)
	}
	if off+4 > len(state) {
		return errors.New("central: state truncated at noise checksum")
	}
	if sum := binary.LittleEndian.Uint32(state[off:]); sum != c.noiseChecksum() {
		return fmt.Errorf("central: state was snapshotted under different parameters (noise checksum %08x, curator has %08x): seed, epsilon and sparsity must all match", sum, c.noiseChecksum())
	}
	off += 4
	users, n := binary.Varint(state[off:])
	if n <= 0 {
		return errors.New("central: state truncated at user count")
	}
	if users < 0 {
		return fmt.Errorf("central: state has negative user count %d", users)
	}
	off += n
	sums := make([]int64, c.d)
	for t := range sums {
		v, n := binary.Varint(state[off:])
		if n <= 0 {
			return fmt.Errorf("central: state truncated at period %d", t+1)
		}
		off += n
		sums[t] = v
	}
	if off != len(state) {
		return fmt.Errorf("central: %d trailing bytes after state", len(state)-off)
	}
	c.users += int(users)
	for t, v := range sums {
		c.sums[t] += v
	}
	return nil
}

// Client is the central model's client: it reports the user's true
// value in the clear every period — the trusted-curator assumption made
// explicit as a client that does not randomize.
type Client struct {
	user, d, t int
}

// NewClient builds the client for one user over horizon d.
func NewClient(user, d int) *Client { return &Client{user: user, d: d} }

// Order returns 0: central clients sample no order.
func (c *Client) Order() int { return 0 }

// Observe reports the value for the next period, as bit ±1 at J = t.
func (c *Client) Observe(value bool) (protocol.Report, bool) {
	c.t++
	if c.t > c.d {
		panic("central: more observations than time periods")
	}
	bit := int8(-1)
	if value {
		bit = 1
	}
	return protocol.Report{User: c.user, Order: 0, J: c.t, Bit: bit}, true
}
