package hh

// This file is the DomainEncoding seam: the mapping between catalogue
// items and the rows the server actually materializes, and the one
// place the two encodings differ. The exact encoding is the identity
// (one row per item, the per-item indicator reduction of the paper's
// Section 1 adaptation); the loloha encoding hashes the catalogue down
// to g buckets client-side (longitudinal local hashing, L-OLH/LOLOHA —
// Arcolezi et al., arXiv:2111.04636 and arXiv:2210.00262) so server
// memory scales with g, not m, and decodes the g bucket counters back
// into unbiased per-item frequency estimates. Everything else is one
// path: the client is DomainClient over Row, the row accumulator is
// DomainServer (protocol.DomainSharded) with g rows instead of m, and
// queries read the Items that ItemsOver puts over the rows — the rows
// themselves, or the HashedDomainServer below. Both are the one item
// reader of memo.go, which holds the decode, each with its own memo.

import "fmt"

// Encoding names. EncodingExact is the per-item indicator reduction
// (one server row per catalogue item); EncodingLoloha is longitudinal
// optimized local hashing (item → bucket, g server rows).
const (
	EncodingExact  = "exact"
	EncodingLoloha = "loloha"
)

// MaxDomainRows caps the number of rows a domain server materializes —
// one dyadic accumulator row each — so a configured or wire-carried
// size cannot force a huge allocation. It is THE domain-size cap of the
// exact encoding (wire.MaxDomainM and ldp.MaxDomainSize both alias it)
// and the bucket-count cap of hashed encodings.
const MaxDomainRows = 1 << 12

// MaxHashedDomainM caps the catalogue size of hashed encodings. The
// catalogue is never materialized server-side — only g rows are — but
// query answering sweeps it (TopK may hash every item), so it is bounded
// too.
const MaxHashedDomainM = 1 << 24

// DomainEncoding identifies how catalogue items map onto server rows.
// It is threaded through every layer — options, wire hellos and sums
// requests, snapshot meta — so a client, server, gateway and recovered
// snapshot can only interoperate when they agree on it.
type DomainEncoding struct {
	Name string // EncodingExact or EncodingLoloha
	M    int    // catalogue size
	G    int    // bucket count (hashed encodings; 0 for exact)
	Seed uint64 // shared epoch hash seed (hashed encodings; 0 for exact)
}

// ExactEncoding is the identity encoding over m items.
func ExactEncoding(m int) DomainEncoding {
	return DomainEncoding{Name: EncodingExact, M: m}
}

// LolohaEncoding hashes an m-item catalogue to g buckets under the
// shared epoch seed. Every client of one collection epoch uses the same
// seed: the g-row aggregate only identifies items because the server
// can recompute each item's bucket.
func LolohaEncoding(m, g int, seed uint64) DomainEncoding {
	return DomainEncoding{Name: EncodingLoloha, M: m, G: g, Seed: seed}
}

// Hashed reports whether the encoding maps many items onto one row.
func (e DomainEncoding) Hashed() bool { return e.Name == EncodingLoloha }

// Rows returns the number of rows a server materializes under this
// encoding: m for exact, g for hashed.
func (e DomainEncoding) Rows() int {
	if e.Hashed() {
		return e.G
	}
	return e.M
}

// RowName names a row in messages: "item" for exact, "bucket" for hashed.
func (e DomainEncoding) RowName() string {
	if e.Hashed() {
		return "bucket"
	}
	return "item"
}

// Validate checks the encoding's parameters against the caps.
func (e DomainEncoding) Validate() error {
	switch e.Name {
	case EncodingExact:
		if e.M < 2 || e.M > MaxDomainRows {
			return fmt.Errorf("hh: exact encoding domain size m=%d outside [2..%d]", e.M, MaxDomainRows)
		}
		if e.G != 0 || e.Seed != 0 {
			return fmt.Errorf("hh: exact encoding carries hash parameters (g=%d seed=%d)", e.G, e.Seed)
		}
	case EncodingLoloha:
		if e.M < 2 || e.M > MaxHashedDomainM {
			return fmt.Errorf("hh: loloha encoding catalogue size m=%d outside [2..%d]", e.M, MaxHashedDomainM)
		}
		if e.G < 2 || e.G > MaxDomainRows {
			return fmt.Errorf("hh: loloha encoding bucket count g=%d outside [2..%d]", e.G, MaxDomainRows)
		}
	default:
		return fmt.Errorf("hh: unknown domain encoding %q", e.Name)
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer: a full-avalanche bijection on
// uint64, cheap enough to hash every catalogue item in a TopK sweep.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Bucket maps a catalogue item to its server row under a hashed
// encoding. Clients and servers of one epoch share the seed, so they
// agree on the map.
func (e DomainEncoding) Bucket(item int) int {
	return int(splitmix64(e.Seed^uint64(item)) % uint64(e.G))
}

// Row maps a catalogue item to the server row its indicator is counted
// in: the item itself under the exact encoding, its bucket under a
// hashed one.
func (e DomainEncoding) Row(item int) int {
	if e.Hashed() {
		return e.Bucket(item)
	}
	return item
}

// Items is the read side of a domain server in catalogue terms — what
// every item-scoped query is answered from: the exact DomainServer, or a
// HashedDomainServer over bucket rows. Both are the one item reader of
// memo.go under their encoding.
type Items interface {
	// D returns the horizon.
	D() int
	// EstimateItemAtCached returns f̂(item, t) and whether it came from
	// a version-keyed memo (see memo.go).
	EstimateItemAtCached(item, t int) (float64, bool)
	// EstimateItemSeries returns f̂(item, 1..d) in a caller-owned slice.
	EstimateItemSeries(item int) []float64
	// AppendItemSeries appends the same values to dst, folding an exact
	// read into the caller's scratch row (see itemReader).
	AppendItemSeries(dst []float64, item int, row []int64) []float64
	// AppendTopK appends the k items with the largest estimate at t, in
	// decreasing order with ties toward the smaller item, and reports
	// whether the selection came from the memo.
	AppendTopK(dst []ItemCount, t, k int) ([]ItemCount, bool)
}

// ItemsOver puts the encoding's item reader over a server's rows — the
// rows themselves under the exact encoding, the bucket decoder under a
// hashed one — which keep receiving every write.
func ItemsOver(enc DomainEncoding, rows *DomainServer) Items {
	if enc.Hashed() {
		return HashedDomainServerOver(enc, rows)
	}
	return rows
}

// HashedDomainServer serves item queries over a hashed encoding: the
// inner DomainServer keeps g rows (one per bucket, the verbatim
// DomainSharded counter matrix), and the embedded item reader decodes
// bucket estimates into unbiased item estimates (see itemReader). The
// reader keeps its own memo, apart from the inner server's, so a read
// of Inner() never serves a decoded value or the other way round.
type HashedDomainServer struct {
	itemReader
	inner *DomainServer // g rows
}

// NewHashedDomainServer builds a hashed domain server for horizon d
// under the encoding, with the Boolean mechanism's estimator scale.
// Panics on an invalid or non-hashed encoding, mirroring
// NewDomainServer's contract.
func NewHashedDomainServer(d int, enc DomainEncoding, boolScale float64, shards int) *HashedDomainServer {
	if err := enc.Validate(); err != nil {
		panic(err.Error())
	}
	if !enc.Hashed() {
		panic(fmt.Sprintf("hh: encoding %q is not hashed", enc.Name))
	}
	return HashedDomainServerOver(enc, NewDomainServer(d, enc.G, boolScale, shards))
}

// HashedDomainServerOver puts the encoding's decoder on top of an
// existing g-row bucket server, which it takes over (Inner returns it).
func HashedDomainServerOver(enc DomainEncoding, inner *DomainServer) *HashedDomainServer {
	if inner.M() != enc.G {
		panic(fmt.Sprintf("hh: %d bucket rows under an encoding with g=%d", inner.M(), enc.G))
	}
	return &HashedDomainServer{
		itemReader: itemReader{enc: enc, d: inner.D(), acc: inner.DomainSharded},
		inner:      inner,
	}
}

// Inner returns the g-row DomainServer holding the raw bucket
// counters. Ingest, folds, raw-sums export and snapshot state all go
// through it — a hashed deployment's wire sums and durable state are
// ordinary g-row domain frames.
func (s *HashedDomainServer) Inner() *DomainServer { return s.inner }

// AdvanceVersion bumps the bucket matrix's mutation stamp for the given
// shard; see protocol.DomainSharded.AdvanceVersion.
func (s *HashedDomainServer) AdvanceVersion(shard int) { s.inner.AdvanceVersion(shard) }
