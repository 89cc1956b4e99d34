package ldp

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/wire"
)

// TestDomainCapDriftPin pins the one domain-size cap to its aliases:
// hh.MaxDomainRows is declared once, and the transport and ldp
// boundaries re-export it. If any layer grows its own literal again,
// this test fails.
func TestDomainCapDriftPin(t *testing.T) {
	if hh.MaxDomainRows != 1<<12 {
		t.Fatalf("hh.MaxDomainRows = %d, want %d", hh.MaxDomainRows, 1<<12)
	}
	if wire.MaxDomainM != hh.MaxDomainRows {
		t.Fatalf("transport.MaxDomainM = %d, want hh.MaxDomainRows = %d", wire.MaxDomainM, hh.MaxDomainRows)
	}
	if MaxDomainSize != hh.MaxDomainRows {
		t.Fatalf("ldp.MaxDomainSize = %d, want hh.MaxDomainRows = %d", MaxDomainSize, hh.MaxDomainRows)
	}
}

// TestValidateDomainSize is the shared -m validation table rtf-serve
// and rtf-gateway both call: m < 2 is rejected under every encoding,
// and each encoding enforces its own cap.
func TestValidateDomainSize(t *testing.T) {
	cases := []struct {
		name     string
		m        int
		encoding string
		ok       bool
	}{
		{"exact minimum", 2, hh.EncodingExact, true},
		{"exact cap", MaxDomainSize, hh.EncodingExact, true},
		{"exact over cap", MaxDomainSize + 1, hh.EncodingExact, false},
		{"exact m=1", 1, hh.EncodingExact, false},
		{"exact m=0", 0, hh.EncodingExact, false},
		{"exact negative", -3, hh.EncodingExact, false},
		{"default is exact", MaxDomainSize + 1, "", false},
		{"default minimum", 2, "", true},
		{"loloha past exact cap", MaxDomainSize + 1, hh.EncodingLoloha, true},
		{"loloha cap", hh.MaxHashedDomainM, hh.EncodingLoloha, true},
		{"loloha over cap", hh.MaxHashedDomainM + 1, hh.EncodingLoloha, false},
		{"loloha m=1", 1, hh.EncodingLoloha, false},
		{"unknown encoding", 16, "olh", false},
	}
	for _, tc := range cases {
		err := ValidateDomainSize(tc.m, tc.encoding)
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestDomainEncodingOptions covers the option-resolution boundary:
// exact rejects stray hash parameters, loloha requires a bucket count
// (explicit or via the budget split), and hashed encodings demand the
// HashedDomain capability.
func TestDomainEncodingOptions(t *testing.T) {
	if _, err := NewDomainServer(16, 8, WithBuckets(4)); err == nil {
		t.Error("exact encoding with WithBuckets accepted")
	}
	if _, err := NewDomainServer(16, 8, WithHashSeed(7)); err == nil {
		t.Error("exact encoding with WithHashSeed accepted")
	}
	if _, err := NewDomainServer(16, 8, WithBudgetSplit(1, 0.5)); err == nil {
		t.Error("exact encoding with WithBudgetSplit accepted")
	}
	if _, err := NewDomainServer(16, 8, WithDomainEncoding("loloha")); err == nil {
		t.Error("loloha without a bucket count accepted")
	}
	if _, err := NewDomainServer(16, 8, WithDomainEncoding("loloha"), WithBuckets(1)); err == nil {
		t.Error("loloha with one bucket accepted")
	}
	if _, err := NewDomainServer(16, 8, WithDomainEncoding("loloha"), WithBuckets(MaxDomainSize+1)); err == nil {
		t.Error("loloha with oversized bucket count accepted")
	}
	if _, err := NewDomainServer(16, 8, WithDomainEncoding("olh"), WithBuckets(4)); err == nil {
		t.Error("unknown encoding accepted")
	}
	if _, err := NewDomainServer(16, hh.MaxHashedDomainM+1, WithDomainEncoding("loloha"), WithBuckets(4)); err == nil {
		t.Error("oversized loloha catalogue accepted")
	}
	if _, err := NewDomainClient(0, 16, 8, WithDomainEncoding("loloha"), WithBuckets(4), WithMechanism(CentralBinary)); err == nil {
		t.Error("non-hashed-domain mechanism accepted for hashed client")
	}
	// A budget split outside 0 < ε₁ < ε_perm, or not finite, is refused
	// with or without an explicit bucket count: OptimalBuckets would
	// answer g = 2 for every one of these.
	for _, split := range [][2]float64{{0.5, 1}, {1, 1}, {-1, 0.5}, {1, math.NaN()}, {math.Inf(1), 0.5}} {
		for _, extra := range [][]Option{nil, {WithBuckets(4)}} {
			opts := append([]Option{WithDomainEncoding("loloha"), WithBudgetSplit(split[0], split[1])}, extra...)
			if _, err := NewDomainClientFactory(16, 1<<20, opts...); err == nil {
				t.Errorf("budget split %v accepted (with %d more options)", split, len(extra))
			}
		}
	}
	// The happy paths: an explicit bucket count, and the budget split's
	// closed-form optimum.
	srv, err := NewDomainServer(16, MaxDomainSize*4, WithDomainEncoding("loloha"), WithBuckets(64), WithHashSeed(9))
	if err != nil {
		t.Fatalf("loloha server rejected: %v", err)
	}
	if enc := srv.Encoding(); !enc.Hashed() || enc.G != 64 || enc.Seed != 9 || enc.M != MaxDomainSize*4 {
		t.Fatalf("server encoding = %+v", enc)
	}
	f, err := NewDomainClientFactory(16, 1<<20, WithDomainEncoding("loloha"), WithBudgetSplit(2, 0.8))
	if err != nil {
		t.Fatalf("budget-split factory rejected: %v", err)
	}
	if want := hh.OptimalBuckets(2, 0.8); f.Encoding().G != want {
		t.Fatalf("budget-split bucket count = %d, want OptimalBuckets(2, 0.8) = %d", f.Encoding().G, want)
	}
}

// TestHashedDomainStreaming runs the loloha path end to end through
// the public ldp API: clients hash a 100k-item catalogue down to 16
// buckets, the server answers the three item query shapes, point and
// series answers agree bit-for-bit, and state survives a
// marshal/restore round trip bit-for-bit.
func TestHashedDomainStreaming(t *testing.T) {
	const (
		d = 16
		m = 100_000
		g = 16
	)
	w, err := GenerateDomain(300, d, m, 3, 1.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{
		WithSparsity(w.K), WithEpsilon(1),
		WithDomainEncoding("loloha"), WithBuckets(g), WithHashSeed(77),
	}
	factory, err := NewDomainClientFactory(d, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDomainServer(d, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for u, us := range w.Users {
		c, err := factory.NewClient(u, perUserSeed(5, u))
		if err != nil {
			t.Fatal(err)
		}
		if c.Item() < 0 || c.Item() >= g {
			t.Fatalf("user %d sampled bucket %d outside [0..%d)", u, c.Item(), g)
		}
		if err := srv.Register(c.Item(), c.Order()); err != nil {
			t.Fatal(err)
		}
		vals := us.Values(d)
		for tt := 1; tt <= d; tt++ {
			r, ok, err := c.Observe(vals[tt-1])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			if err := srv.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Register/Ingest validate against the bucket row space, not the
	// catalogue.
	if err := srv.Register(g, 0); err == nil {
		t.Error("register bucket == g accepted")
	}
	if err := srv.Ingest(DomainReport{Item: g, Report: Report{User: 1, J: 1, Bit: 1}}); err == nil {
		t.Error("ingest bucket == g accepted")
	}
	// Point answers equal the series entries bit-for-bit, for items well
	// past the exact encoding's cap.
	for _, item := range []int{0, 1, MaxDomainSize + 13, m - 1} {
		series, err := srv.Answer(SeriesItemQuery(item))
		if err != nil {
			t.Fatal(err)
		}
		if len(series.Series) != d {
			t.Fatalf("series length %d, want %d", len(series.Series), d)
		}
		for tt := 1; tt <= d; tt++ {
			point, err := srv.Answer(PointItemQuery(item, tt))
			if err != nil {
				t.Fatal(err)
			}
			if point.Value != series.Series[tt-1] {
				t.Fatalf("item %d t=%d: point %v != series %v", item, tt, point.Value, series.Series[tt-1])
			}
		}
	}
	// TopK is sorted, k-bounded, and in range.
	top, err := srv.TopK(d, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 25 {
		t.Fatalf("TopK returned %d items, want 25", len(top))
	}
	for i, ic := range top {
		if ic.Item < 0 || ic.Item >= m {
			t.Fatalf("TopK item %d out of range", ic.Item)
		}
		if i > 0 && (top[i-1].Count < ic.Count || (top[i-1].Count == ic.Count && top[i-1].Item > ic.Item)) {
			t.Fatalf("TopK out of order at %d: %+v then %+v", i, top[i-1], ic)
		}
	}
	// Marshal/restore round trip is bit-for-bit.
	state, err := srv.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDomainServer(d, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	for _, item := range []int{0, MaxDomainSize + 13, m - 1} {
		a, err := srv.Answer(SeriesItemQuery(item))
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Answer(SeriesItemQuery(item))
		if err != nil {
			t.Fatal(err)
		}
		for tt := range a.Series {
			if a.Series[tt] != b.Series[tt] {
				t.Fatalf("restored series diverges at item %d t=%d", item, tt+1)
			}
		}
	}
}

// estimateCRC folds a domain result's estimate matrix row-major into a
// CRC-32/IEEE over the little-endian float bits — a whole-output
// fingerprint for the refactor-invariance goldens.
func estimateCRC(est [][]float64) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, row := range est {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum32()
}

// TestDomainExactGolden pins the exact encoding's streamed per-item
// series bit-for-bit: the fingerprints were captured on the
// pre-DomainEncoding code with the same perUserSeed client seeds, so
// any drift in the exact path — RNG draw order, estimator arithmetic,
// reduction plumbing — fails here.
func TestDomainExactGolden(t *testing.T) {
	w, err := GenerateDomain(400, 64, 8, 3, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		proto Protocol
		crc   uint32
		first uint64 // Float64bits of Estimates[0][0]
		last  uint64 // Float64bits of Estimates[7][63]
	}{
		{FutureRand, 0xdbcd7c19, 0xc0c563f5145fb479, 0xc09563f5145fb479},
		{Erlingsson, 0xd9919133, 0, 0xc0a3f3057fb5b5d5},
	}
	for _, tc := range cases {
		_, est, err := streamDomain(w, 11, WithMechanism(tc.proto), WithEpsilon(0.8))
		if err != nil {
			t.Fatalf("%s: %v", tc.proto, err)
		}
		if got := math.Float64bits(est[0][0]); got != tc.first {
			t.Errorf("%s: Estimates[0][0] bits = %016x, want %016x", tc.proto, got, tc.first)
		}
		if got := math.Float64bits(est[7][63]); got != tc.last {
			t.Errorf("%s: Estimates[7][63] bits = %016x, want %016x", tc.proto, got, tc.last)
		}
		if got := estimateCRC(est); got != tc.crc {
			t.Errorf("%s: estimate CRC = %08x, want %08x", tc.proto, got, tc.crc)
		}
	}
}
