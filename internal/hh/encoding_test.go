package hh

import (
	"math"
	"sort"
	"strings"
	"testing"

	"rtf/internal/protocol"
	"rtf/internal/rng"
)

func TestDomainEncodingValidate(t *testing.T) {
	ok := []DomainEncoding{
		ExactEncoding(2),
		ExactEncoding(MaxDomainRows),
		LolohaEncoding(2, 2, 0),
		LolohaEncoding(MaxHashedDomainM, MaxDomainRows, 0xdeadbeef),
		LolohaEncoding(1_000_000, 64, 7),
	}
	for _, e := range ok {
		if err := e.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", e, err)
		}
	}
	bad := []DomainEncoding{
		{},
		{Name: "olh", M: 8, G: 4},
		ExactEncoding(1),
		ExactEncoding(0),
		ExactEncoding(MaxDomainRows + 1),
		{Name: EncodingExact, M: 8, G: 4},
		{Name: EncodingExact, M: 8, Seed: 1},
		LolohaEncoding(1, 2, 0),
		LolohaEncoding(MaxHashedDomainM+1, 64, 0),
		LolohaEncoding(100, 1, 0),
		LolohaEncoding(100, MaxDomainRows+1, 0),
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("%+v accepted", e)
		}
	}
}

func TestDomainEncodingRows(t *testing.T) {
	if got := ExactEncoding(100).Rows(); got != 100 {
		t.Errorf("exact Rows() = %d, want 100", got)
	}
	if ExactEncoding(100).Hashed() {
		t.Error("exact encoding reports Hashed")
	}
	e := LolohaEncoding(1_000_000, 256, 3)
	if got := e.Rows(); got != 256 {
		t.Errorf("loloha Rows() = %d, want 256", got)
	}
	if !e.Hashed() {
		t.Error("loloha encoding not Hashed")
	}
}

func TestBucketRangeAndDeterminism(t *testing.T) {
	e := LolohaEncoding(100_000, 16, 42)
	counts := make([]int, e.G)
	for x := 0; x < e.M; x++ {
		b := e.Bucket(x)
		if b < 0 || b >= e.G {
			t.Fatalf("Bucket(%d) = %d outside [0..%d)", x, b, e.G)
		}
		if b != e.Bucket(x) {
			t.Fatalf("Bucket(%d) not deterministic", x)
		}
		counts[b]++
	}
	// splitmix64 should spread 100k items over 16 buckets near-uniformly;
	// a generous ±20% band catches a broken mixer without flaking.
	mean := e.M / e.G
	for b, c := range counts {
		if c < mean*8/10 || c > mean*12/10 {
			t.Errorf("bucket %d holds %d of %d items (mean %d)", b, c, e.M, mean)
		}
	}
	// A different epoch seed must induce a different item→bucket map.
	e2 := LolohaEncoding(e.M, e.G, 43)
	same := 0
	for x := 0; x < 1000; x++ {
		if e.Bucket(x) == e2.Bucket(x) {
			same++
		}
	}
	if same > 250 { // expect ~1/16 ≈ 62
		t.Errorf("seeds 42 and 43 agree on %d/1000 buckets", same)
	}
}

// TestHashedClientIndicator pins the hashed reduction: the wrapped
// Boolean client sees the bucket indicator 1{B(v) = bucket}, and -1
// (no item) never matches.
func TestHashedClientIndicator(t *testing.T) {
	e := LolohaEncoding(1000, 8, 99)
	obs := &recordingObserver{}
	c, err := NewDomainClient(3, e, obs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Row() != 3 {
		t.Fatalf("Row() = %d, want 3", c.Row())
	}
	in := []int{-1, 0, 17, 400, 17, 999}
	for _, v := range in {
		if _, _, err := c.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if len(obs.vals) != len(in) {
		t.Fatalf("observer saw %d values, want %d", len(obs.vals), len(in))
	}
	for i, v := range in {
		want := v >= 0 && e.Bucket(v) == 3
		if obs.vals[i] != want {
			t.Errorf("indicator[%d] for value %d = %v, want %v", i, v, obs.vals[i], want)
		}
	}
	// Out-of-range values are rejected without touching the inner client.
	seen := len(obs.vals)
	// The one range check names the catalogue — the space this layer
	// owns — not the bucket space beneath it.
	if _, _, err := c.Observe(1000); err == nil || !strings.Contains(err.Error(), "[0..1000)") {
		t.Errorf("value m: error %v, want one naming the catalogue range [0..1000)", err)
	}
	if _, _, err := c.Observe(-2); err == nil {
		t.Error("value -2 accepted")
	}
	if len(obs.vals) != seen {
		t.Error("rejected value reached the inner client")
	}
	// Constructor validation.
	if _, err := NewDomainClient(8, e, obs); err == nil || !strings.Contains(err.Error(), "bucket 8") {
		t.Errorf("bucket == g: error %v, want one naming the bucket", err)
	}
	if _, err := NewDomainClient(0, DomainEncoding{Name: EncodingLoloha, M: 1, G: 4}, obs); err == nil {
		t.Error("invalid encoding accepted")
	}
}

func TestNewHashedDomainServerValidation(t *testing.T) {
	for _, e := range []DomainEncoding{ExactEncoding(8), {Name: EncodingLoloha, M: 1, G: 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHashedDomainServer accepted %+v", e)
				}
			}()
			NewHashedDomainServer(16, e, 1, 1)
		}()
	}
}

// runHashedStreaming drives one full hashed streaming execution under a
// fresh shared epoch seed: every user hashes with the same seed, samples
// a uniform target bucket, and streams bucket indicators.
func runHashedStreaming(t *testing.T, w *DomainWorkload, buckets int, eps float64, g *rng.RNG) *HashedDomainServer {
	t.Helper()
	factories, err := protocol.FutureRand.Factories(w.D, w.K, eps)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := protocol.FutureRand.Scale(w.D, w.K, eps)
	if err != nil {
		t.Fatal(err)
	}
	enc := LolohaEncoding(w.M, buckets, uint64(g.Int64()))
	srv := NewHashedDomainServer(w.D, enc, scale, 1)
	for u, us := range w.Users {
		bucket := g.IntN(enc.G)
		c, err := NewDomainClient(bucket, enc, protocol.NewSeededClient(u, w.D, factories, g.Int64()))
		if err != nil {
			t.Fatal(err)
		}
		srv.Inner().Register(0, c.Row(), c.Order())
		vals := us.Values(w.D)
		for tt := 1; tt <= w.D; tt++ {
			r, ok, err := c.Observe(vals[tt-1])
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				srv.Inner().Ingest(0, c.Row(), r)
			}
		}
	}
	return srv
}

// TestHashedStreamingUnbiased is the LOLOHA decoder property test: with
// a fresh shared epoch seed per trial, the decoded per-item estimates
// center on the true frequency — the hash collisions an item suffers
// average out over the seed draw.
func TestHashedStreamingUnbiased(t *testing.T) {
	g := rng.New(21, 22)
	w, err := (ZipfDomainGen{N: 300, D: 8, M: 20, K: 4, S: 1}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Truth()
	const trials = 80
	sums := make([][]float64, w.M)
	sqs := make([][]float64, w.M)
	for x := range sums {
		sums[x] = make([]float64, w.D)
		sqs[x] = make([]float64, w.D)
	}
	for i := 0; i < trials; i++ {
		srv := runHashedStreaming(t, w, 5, 1, g.Split())
		for x := 0; x < w.M; x++ {
			est := srv.EstimateItemSeries(x)
			for tt := 0; tt < w.D; tt++ {
				sums[x][tt] += est[tt]
				sqs[x][tt] += est[tt] * est[tt]
			}
		}
	}
	for x := 0; x < w.M; x++ {
		for _, tt := range []int{3, 7} {
			mean := sums[x][tt] / trials
			sd := math.Sqrt(sqs[x][tt]/trials - mean*mean)
			se := sd / math.Sqrt(trials)
			if math.Abs(mean-float64(truth[x][tt])) > 6*se+1e-9 {
				t.Errorf("item %d t=%d: mean %v, truth %d (se %v)", x, tt+1, mean, truth[x][tt], se)
			}
		}
	}
}

// TestHashedReadPathConsistency pins the hashed read paths against each
// other bit-for-bit: point and series decodes must agree exactly, and
// the decode must match the formula applied to the raw bucket rows.
func TestHashedReadPathConsistency(t *testing.T) {
	g := rng.New(31, 32)
	w, err := (ZipfDomainGen{N: 400, D: 16, M: 30, K: 4, S: 1}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	srv := runHashedStreaming(t, w, 4, 1, g.Split())
	enc := srv.Encoding()
	if srv.D() != w.D || srv.M() != w.M || enc.G != 4 {
		t.Fatalf("server dims d=%d m=%d g=%d", srv.D(), srv.M(), enc.G)
	}
	if srv.Inner().M() != enc.G {
		t.Fatalf("inner rows %d != g %d", srv.Inner().M(), enc.G)
	}
	for x := 0; x < w.M; x++ {
		series := srv.EstimateItemSeries(x)
		if len(series) != w.D {
			t.Fatalf("item %d series has %d entries", x, len(series))
		}
		for tt := 1; tt <= w.D; tt++ {
			if got := srv.EstimateItemAt(x, tt); got != series[tt-1] {
				t.Fatalf("item %d t=%d: point %v != series %v", x, tt, got, series[tt-1])
			}
		}
	}
	// Manual decode from the raw bucket estimates, in fixed bucket order.
	for _, tt := range []int{1, 7, 16} {
		var total float64
		for b := 0; b < enc.G; b++ {
			total += srv.Inner().EstimateItemAt(b, tt)
		}
		gf := float64(enc.G)
		for x := 0; x < w.M; x += 7 {
			want := (srv.Inner().EstimateItemAt(enc.Bucket(x), tt) - total/gf) * gf / (gf - 1)
			if got := srv.EstimateItemAt(x, tt); got != want {
				t.Fatalf("item %d t=%d: decode %v != formula %v", x, tt, got, want)
			}
		}
	}
}

// TestHashedTopKMatchesFullSort pins the k-bounded heap selection
// against the reference full-sort-and-truncate ordering (count
// descending, ties toward the smaller item).
func TestHashedTopKMatchesFullSort(t *testing.T) {
	g := rng.New(41, 42)
	w, err := (ZipfDomainGen{N: 400, D: 8, M: 60, K: 4, S: 1.2}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	srv := runHashedStreaming(t, w, 8, 1, g.Split())
	for _, tt := range []int{1, 4, 8} {
		full := make([]ItemCount, w.M)
		for x := 0; x < w.M; x++ {
			full[x] = ItemCount{Item: x, Count: srv.EstimateItemAt(x, tt)}
		}
		sort.Slice(full, func(i, j int) bool {
			if full[i].Count != full[j].Count {
				return full[i].Count > full[j].Count
			}
			return full[i].Item < full[j].Item
		})
		// With g=8 buckets and 60 items, every bucket's decode is shared by
		// ~8 items — the boundary of every k cuts through a tie run, so the
		// tie-break semantics are genuinely exercised.
		for _, k := range []int{0, 1, 3, 10, w.M, w.M + 5} {
			got := srv.TopK(tt, k)
			want := full
			if k < len(want) {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("t=%d k=%d: got %d entries, want %d", tt, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("t=%d k=%d entry %d: got %+v, want %+v", tt, k, i, got[i], want[i])
				}
			}
		}
	}
	// Panics on out-of-range arguments, like the exact server.
	for _, c := range [][2]int{{0, 1}, {9, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TopK(%d, %d) did not panic", c[0], c[1])
				}
			}()
			srv.TopK(c[0], c[1])
		}()
	}
}
