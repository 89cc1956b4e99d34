package hh

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// refTopK is the pre-memo specification: full sort of the per-item
// point estimates, descending with ties toward the smaller item,
// truncated to k.
func refTopK(est []float64, k int) []ItemCount {
	out := make([]ItemCount, len(est))
	for x := range out {
		out[x] = ItemCount{Item: x, Count: est[x]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

func sameTopK(a, b []ItemCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Item != b[i].Item || math.Float64bits(a[i].Count) != math.Float64bits(b[i].Count) {
			return false
		}
	}
	return true
}

// TestSelectTopKMatchesFullSort pins the partial selection against the
// full-sort-and-truncate specification, including heavy ties and edge
// k values.
func TestSelectTopKMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(64)
		est := make([]float64, n)
		for i := range est {
			// Few distinct values so ties are common.
			est[i] = float64(r.Intn(5)) * 1.25
		}
		for _, k := range []int{0, 1, n / 2, n - 1, n, n + 3} {
			if k < 0 {
				continue
			}
			got := selectTopK(nil, n, k, slices.Max(est), func(x int) float64 { return est[x] })
			want := refTopK(est, k)
			if !sameTopK(got, want) {
				t.Fatalf("n=%d k=%d: selectTopK %v != full sort %v (est %v)", n, k, got, want, est)
			}
		}
	}
}

// feedDomain ingests a Zipf workload into the server through the raw
// engine API, advancing the version stamp once per user — the batched
// writer pattern the memo contract requires.
func feedDomain(t *testing.T, srv *DomainServer, w *DomainWorkload) {
	t.Helper()
	g := rng.New(7, 8)
	for u, us := range w.Users {
		item := g.IntN(w.M)
		srv.Register(u%4, item, 0)
		vals := us.Values(w.D)
		for tt := 1; tt <= w.D; tt++ {
			bit := int8(-1)
			if vals[tt-1] == item {
				bit = 1
			}
			srv.Ingest(u%4, item, protocol.Report{User: u, Order: 0, J: tt, Bit: bit})
		}
		srv.AdvanceVersion(u % 4)
	}
}

// TestTopKMemoBitForBit checks that warm (memoized) TopK answers are
// bit-for-bit the cold answers, that the memo reports hits only when
// the version stamp is unchanged, and that any write batch invalidates
// it.
func TestTopKMemoBitForBit(t *testing.T) {
	const d, m, k = 8, 64, 12
	srv := NewDomainServer(d, m, 1.5, 4)
	w, err := ZipfDomainGen{N: 80, D: d, M: m, K: 3, S: 1.1}.Generate(rng.New(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	feedDomain(t, srv, w)

	for tt := 1; tt <= d; tt++ {
		est := make([]float64, m)
		for x := 0; x < m; x++ {
			est[x] = srv.EstimateItemAt(x, tt)
		}
		want := refTopK(est, k)

		cold, hit := srv.AppendTopK(nil, tt, k)
		if hit {
			t.Fatalf("t=%d: first TopK reported a memo hit", tt)
		}
		if !sameTopK(cold, want) {
			t.Fatalf("t=%d: cold TopK %v != reference %v", tt, cold, want)
		}
		warm, hit := srv.AppendTopK(nil, tt, k)
		if !hit {
			t.Fatalf("t=%d: repeated TopK missed the memo", tt)
		}
		if !sameTopK(warm, want) {
			t.Fatalf("t=%d: warm TopK %v != reference %v", tt, warm, want)
		}
	}

	// A write batch (ingest + advance) must invalidate the memo and the
	// next answer must reflect the new counters.
	tt := 3
	before := srv.TopK(tt, k)
	srv.Ingest(0, before[0].Item, protocol.Report{User: 999, Order: 0, J: tt, Bit: 1})
	srv.AdvanceVersion(0)
	after, hit := srv.AppendTopK(nil, tt, k)
	if hit {
		t.Fatal("TopK after an advanced write batch reported a memo hit")
	}
	est := make([]float64, m)
	for x := 0; x < m; x++ {
		est[x] = srv.EstimateItemAt(x, tt)
	}
	if !sameTopK(after, refTopK(est, k)) {
		t.Fatalf("post-invalidation TopK %v != reference %v", after, refTopK(est, k))
	}
}

// TestTopKAliasing pins the aliasing contract: TopK and AppendTopK hand
// out copies, so callers may retain and mutate results without
// corrupting the memo or each other.
func TestTopKAliasing(t *testing.T) {
	srv := NewDomainServer(8, 8, 1, 1)
	for x := 0; x < 8; x++ {
		for i := 0; i <= x; i++ {
			srv.Ingest(0, x, protocol.Report{Order: 0, J: 1, Bit: 1})
		}
	}
	srv.AdvanceVersion(0)

	first := srv.TopK(1, 4)
	second := srv.TopK(1, 4)
	if &first[0] == &second[0] {
		t.Fatal("successive TopK calls share a backing array")
	}
	want := append([]ItemCount(nil), second...)
	// Clobbering the caller's copy must not leak into later answers.
	first[0] = ItemCount{Item: -1, Count: math.Inf(1)}
	third := srv.TopK(1, 4)
	if !sameTopK(third, want) {
		t.Fatalf("mutating a returned TopK corrupted a later answer: %v != %v", third, want)
	}

	// AppendTopK appends to the caller's buffer and reuses its capacity.
	buf := make([]ItemCount, 0, 8)
	out, _ := srv.AppendTopK(buf, 1, 4)
	if cap(out) != cap(buf) {
		t.Fatalf("AppendTopK reallocated despite capacity %d", cap(buf))
	}
	out[0] = ItemCount{Item: -2, Count: math.Inf(-1)}
	fourth := srv.TopK(1, 4)
	if !sameTopK(fourth, want) {
		t.Fatalf("mutating an AppendTopK result corrupted a later answer: %v != %v", fourth, want)
	}
}

// TestHashedTopKMemoBitForBit is TestTopKMemoBitForBit for the hashed
// encoding: warm answers (which skip both the decode and the m-item
// hash sweep) must be bit-for-bit the cold ones, and point estimates
// must be served from the same memoized decode.
func TestHashedTopKMemoBitForBit(t *testing.T) {
	const d, m, g, k = 8, 500, 32, 10
	enc := LolohaEncoding(m, g, 0xfeed)
	srv := NewHashedDomainServer(d, enc, 2.0, 4)
	rg := rng.New(5, 6)
	for u := 0; u < 120; u++ {
		b := rg.IntN(g)
		srv.Inner().Register(u%4, b, 0)
		for tt := 1; tt <= d; tt++ {
			bit := int8(1)
			if rg.Bernoulli(0.5) {
				bit = -1
			}
			srv.Inner().Ingest(u%4, b, protocol.Report{User: u, Order: 0, J: tt, Bit: bit})
		}
		srv.AdvanceVersion(u % 4)
	}

	for tt := 1; tt <= d; tt++ {
		est := make([]float64, m)
		for x := 0; x < m; x++ {
			est[x] = srv.EstimateItemAt(x, tt)
		}
		want := refTopK(est, k)

		cold, hit := srv.AppendTopK(nil, tt, k)
		if !sameTopK(cold, want) {
			t.Fatalf("t=%d: cold hashed TopK %v != reference %v", tt, cold, want)
		}
		_ = hit // the decode may already be warm from EstimateItemAt
		warm, hit := srv.AppendTopK(nil, tt, k)
		if !hit {
			t.Fatalf("t=%d: repeated hashed TopK missed the memo", tt)
		}
		if !sameTopK(warm, want) {
			t.Fatalf("t=%d: warm hashed TopK %v != reference %v", tt, warm, want)
		}

		v, hit := srv.EstimateItemAtCached(7, tt)
		if !hit {
			t.Fatalf("t=%d: point estimate after TopK missed the decode memo", tt)
		}
		if math.Float64bits(v) != math.Float64bits(est[7]) {
			t.Fatalf("t=%d: cached point estimate %v != direct %v", tt, v, est[7])
		}
	}

	// Invalidation: a write batch must flip the next answer to a miss.
	srv.Inner().Ingest(0, 0, protocol.Report{User: 999, Order: 0, J: 1, Bit: 1})
	srv.AdvanceVersion(0)
	if _, hit := srv.AppendTopK(nil, 1, k); hit {
		t.Fatal("hashed TopK after an advanced write batch reported a memo hit")
	}
}

// TestTopKMemoUnderConcurrentIngest is the single-server half of the
// race-pass property test: writers ingest and advance while readers
// hammer TopK; when the writers quiesce, the (possibly memoized)
// answers must be bit-for-bit a fresh reference computation. Run with
// -race in CI.
func TestTopKMemoUnderConcurrentIngest(t *testing.T) {
	const d, m, k, writers, rounds = 8, 32, 8, 4, 50
	srv := NewDomainServer(d, m, 1.0, writers)

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	writerWG.Add(writers)
	for wid := 0; wid < writers; wid++ {
		go func(wid int) {
			defer writerWG.Done()
			g := rng.New(uint64(wid), 99)
			for i := 0; i < rounds; i++ {
				for j := 0; j < 16; j++ {
					bit := int8(1)
					if g.Bernoulli(0.5) {
						bit = -1
					}
					srv.Ingest(wid, g.IntN(m), protocol.Report{Order: 0, J: 1 + g.IntN(d), Bit: bit})
				}
				srv.AdvanceVersion(wid)
			}
		}(wid)
	}
	readerWG.Add(2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer readerWG.Done()
			var buf []ItemCount
			for {
				select {
				case <-stop:
					return
				default:
					buf, _ = srv.AppendTopK(buf[:0], 1+r*3, k)
					if len(buf) != k {
						t.Errorf("TopK returned %d items, want %d", len(buf), k)
						return
					}
				}
			}
		}(r)
	}
	// Writers quiesce; readers stop; then every cached answer must match
	// a from-scratch reference.
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	for tt := 1; tt <= d; tt++ {
		est := make([]float64, m)
		for x := 0; x < m; x++ {
			est[x] = srv.EstimateItemAt(x, tt)
		}
		want := refTopK(est, k)
		got, _ := srv.AppendTopK(nil, tt, k)
		if !sameTopK(got, want) {
			t.Fatalf("t=%d: quiesced TopK %v != reference %v", tt, got, want)
		}
	}
}

// shapedHashed builds a hashed server whose bucket b holds weight[b]
// users' +1 reports at every period, so bucket (and hence item)
// estimates at any t order like the weights, ties included.
func shapedHashed(d int, enc DomainEncoding, weight []int) *HashedDomainServer {
	srv := NewHashedDomainServer(d, enc, 1.5, 2)
	for b, w := range weight {
		for u := 0; u < w; u++ {
			srv.Inner().Register(u%2, b, 0)
			for tt := 1; tt <= d; tt++ {
				srv.Inner().Ingest(u%2, b, protocol.Report{User: u, Order: 0, J: tt, Bit: 1})
			}
		}
	}
	srv.AdvanceVersion(0)
	return srv
}

// TestTopKAgainstFullSort checks TopK on both servers — the selection's
// early exit included — against a specification that shares no code
// with it: all m items sorted by (−estimate, item) and truncated. The
// hashed cases shape the bucket values to sit on the exit's edges.
func TestTopKAgainstFullSort(t *testing.T) {
	const d = 4
	ks := func(m int, more ...int) []int { return append([]int{0, 1, 2, m - 1, m, m + 7}, more...) }
	check := func(t *testing.T, m int, estimate func(x, tt int) float64, topK func(tt, k int) []ItemCount, ks []int) {
		t.Helper()
		for tt := 1; tt <= d; tt++ {
			est := make([]float64, m)
			for x := range est {
				est[x] = estimate(x, tt)
			}
			for _, k := range ks {
				if got, want := topK(tt, k), refTopK(est, k); !sameTopK(got, want) {
					t.Fatalf("t=%d k=%d: TopK %v != full sort %v", tt, k, got, want)
				}
			}
		}
	}
	hashed := func(m, g int, weight func(enc DomainEncoding, b int) int, more ...int) func(*testing.T) {
		return func(t *testing.T) {
			enc := LolohaEncoding(m, g, 0xabc)
			w := make([]int, g)
			for b := range w {
				w[b] = weight(enc, b)
			}
			srv := shapedHashed(d, enc, w)
			check(t, m, srv.EstimateItemAt, srv.TopK, ks(m, more...))
		}
	}
	population := func(enc DomainEncoding, b int) (n int) {
		for x := 0; x < enc.M; x++ {
			if enc.Bucket(x) == b {
				n++
			}
		}
		return n
	}
	// All buckets equal: every item ties at the ceiling, the exit fires
	// as soon as the heap is full, and the answer is items 0..k−1.
	t.Run("hashed/all-equal", hashed(300, 16, func(DomainEncoding, int) int { return 3 }, 5, 50))
	// Two buckets tie for best.
	t.Run("hashed/two-best", hashed(300, 16, func(_ DomainEncoding, b int) int { return 2 + 4*(b%8/7) }, 5, 50))
	// One best bucket; k up to and beyond its population, so the exit
	// fires for small k and cannot for large.
	t.Run("hashed/k-over-best-bucket", hashed(400, 16, func(_ DomainEncoding, b int) int { return 1 + 9*(b/15) }, 10, 24, 25, 26, 60))
	// The best bucket is item 0's: with k = 1 the exit fires on the very
	// item that fills the heap.
	t.Run("hashed/exit-on-fill", hashed(300, 16, func(enc DomainEncoding, b int) int {
		if b == enc.Bucket(0) {
			return 8
		}
		return b % 3
	}))
	// Fewer items than buckets, and about as many: most buckets hold no
	// item, and the largest value sits in an empty one, so the ceiling
	// is never reached.
	emptyBest := func(enc DomainEncoding, b int) int {
		if population(enc, b) == 0 {
			return 9
		}
		return b % 4
	}
	t.Run("hashed/m<g", hashed(5, 64, emptyBest))
	t.Run("hashed/m~g", hashed(60, 64, emptyBest))

	t.Run("exact", func(t *testing.T) {
		// Few users over many items: most estimates tie, several at the
		// maximum.
		const m = 40
		srv := NewDomainServer(d, m, 1.5, 2)
		r := rand.New(rand.NewSource(9))
		for u := 0; u < 30; u++ {
			x := r.Intn(m)
			srv.Register(u%2, x, 0)
			for tt := 1; tt <= d; tt++ {
				srv.Ingest(u%2, x, protocol.Report{User: u, Order: 0, J: tt, Bit: int8(1 - 2*r.Intn(2))})
			}
		}
		srv.AdvanceVersion(0)
		check(t, m, srv.EstimateItemAt, srv.TopK, ks(m, 3, 10))
	})
}

// TestSelectTopKStopsEarly pins the early exit itself: the sweep ends
// at the k-th item at the ceiling, and runs to the end when fewer than
// k items reach it.
func TestSelectTopKStopsEarly(t *testing.T) {
	const n, g = 10000, 16
	// Item x's stand-in bucket value; the ceiling g−1 is reached by the
	// n/g items x ≡ 9 (mod 16).
	val := func(x int) float64 { return float64(x * 7 % g) }
	est := make([]float64, n)
	for x := range est {
		est[x] = val(x)
	}
	for _, k := range []int{1, 5, n / g, n/g + 1} {
		calls := 0
		got := selectTopK(nil, n, k, g-1, func(x int) float64 { calls++; return val(x) })
		if !sameTopK(got, refTopK(est, k)) {
			t.Fatalf("k=%d: selection differs from the full sort", k)
		}
		want := 9 + 16*(k-1) + 1 // through the k-th item at the ceiling
		if k > n/g {
			want = n
		}
		if calls != want {
			t.Fatalf("k=%d: swept %d items, want %d", k, calls, want)
		}
	}
}

// TestHashedTopKTiesAtOneHash pins a defect of today's hashed encoding
// instead of hiding it: with one epoch hash every item of a bucket reads
// the bucket's one decoded value, so a full-catalogue TopK of the top
// bucket is a ranking by id. A heavy item x* at an id ≥ m/4 makes its
// bucket b* the top one (reports go straight into the rows, no
// randomizer), and TopK(t, 5) returns the five smallest ids hashing to
// b*, x* not among them. ROADMAP item 14 (H epoch hashes, where two
// items tie only if they collide under all H) is the change that flips
// this test: at H > 1 the heavy item separates from its bucket mates.
func TestHashedTopKTiesAtOneHash(t *testing.T) {
	const d, m, g, k = 4, 4096, 16, 5
	enc := LolohaEncoding(m, g, 0x5eed)
	heavy := m/4 + 3
	best := enc.Bucket(heavy)
	// Bucket b holds 1 + b%3 users, b* forty, each reporting +1 on every
	// dyadic interval, so every period reads b* highest.
	srv := NewHashedDomainServer(d, enc, 1.5, 1)
	w := srv.Inner().Lock(0)
	for b := 0; b < g; b++ {
		users := 1 + b%3
		if b == best {
			users = 40
		}
		for u := 0; u < users; u++ {
			w.Register(b, 0)
			for h := 0; 1<<h <= d; h++ {
				for j := 1; j <= d>>h; j++ {
					w.Ingest(b, protocol.Report{User: u, Order: h, J: j, Bit: 1})
				}
			}
		}
	}
	w.Unlock()

	var mates []int // the smallest ids in the heavy item's bucket
	for x := 0; len(mates) < k; x++ {
		if enc.Bucket(x) == best {
			mates = append(mates, x)
		}
	}
	for tt := 1; tt <= d; tt++ {
		val := srv.EstimateItemAt(heavy, tt)
		top := srv.TopK(tt, k)
		if len(top) != k {
			t.Fatalf("t=%d: TopK returned %d items, want %d", tt, len(top), k)
		}
		for i, ic := range top {
			if ic.Item != mates[i] || math.Float64bits(ic.Count) != math.Float64bits(val) {
				t.Fatalf("t=%d: TopK = %v, want items %v all at the top bucket's value %v", tt, top, mates, val)
			}
			if ic.Item == heavy {
				t.Fatalf("t=%d: heavy item %d ranked among its bucket mates %v", tt, heavy, mates)
			}
		}
	}
}
