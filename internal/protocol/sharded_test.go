package protocol

import (
	"math"
	"slices"
	"sync"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/rng"
)

// randomReports builds a deterministic batch of valid reports over [d].
func randomReports(g *rng.RNG, d, n int) []Report {
	out := make([]Report, n)
	for i := range out {
		h := SampleOrder(g, d)
		j := 1 + g.IntN(d>>uint(h))
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		out[i] = Report{User: i, Order: h, J: j, Bit: bit}
	}
	return out
}

// TestShardedMatchesSerial checks that concurrent sharded ingestion is
// bit-for-bit identical to a serial server fed the same reports.
func TestShardedMatchesSerial(t *testing.T) {
	const d, n, shards = 256, 20000, 8
	g := rng.New(1, 2)
	reports := randomReports(g, d, n)

	serial := NewServer(d, 3.5)
	for _, r := range reports {
		serial.Ingest(r)
	}
	for h := 0; h < dyadic.NumOrders(d); h++ {
		serial.Register(h)
	}

	acc := NewSharded(d, 3.5, shards)
	var wg sync.WaitGroup
	per := (n + shards - 1) / shards
	for s := 0; s < shards; s++ {
		lo, hi := s*per, min((s+1)*per, n)
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			for _, r := range reports[lo:hi] {
				// Deliberately scatter across shards: correctness must not
				// depend on shard assignment.
				acc.Ingest(r.User, r)
			}
		}(s, lo, hi)
	}
	wg.Wait()
	for h := 0; h < dyadic.NumOrders(d); h++ {
		acc.Register(h, h)
	}

	if got, want := acc.Users(), serial.Users(); got != want {
		t.Fatalf("Users: got %d, want %d", got, want)
	}
	for tt := 1; tt <= d; tt++ {
		if got, want := acc.EstimateAt(tt), serial.EstimateAt(tt); got != want {
			t.Fatalf("EstimateAt(%d): got %v, want %v", tt, got, want)
		}
	}

	snap := acc.Snapshot()
	se, we := snap.EstimateSeries(), serial.EstimateSeries()
	for i := range se {
		if se[i] != we[i] {
			t.Fatalf("series[%d]: got %v, want %v", i, se[i], we[i])
		}
	}
	for h := 0; h < dyadic.NumOrders(d); h++ {
		if snap.UsersAtOrder(h) != serial.UsersAtOrder(h) {
			t.Fatalf("UsersAtOrder(%d): got %d, want %d", h, snap.UsersAtOrder(h), serial.UsersAtOrder(h))
		}
	}
}

// TestShardedQueryMethodsMatchSerial checks the live series and range
// estimates against the serial server, bit for bit — the invariant the
// v2 query path of rtf-serve relies on.
func TestShardedQueryMethodsMatchSerial(t *testing.T) {
	const d, n, shards = 128, 10000, 4
	g := rng.New(3, 4)
	reports := randomReports(g, d, n)

	serial := NewServer(d, 2.25)
	acc := NewSharded(d, 2.25, shards)
	for i, r := range reports {
		serial.Ingest(r)
		acc.Ingest(i, r)
	}

	se, we := acc.EstimateSeries(), serial.EstimateSeries()
	for i := range we {
		if se[i] != we[i] {
			t.Fatalf("series[%d]: got %v, want %v", i, se[i], we[i])
		}
	}
	ranges := [][2]int{{1, 1}, {1, d}, {5, 12}, {d / 2, d/2 + 1}, {17, 90}}
	for _, lr := range ranges {
		if got, want := acc.EstimateChange(lr[0], lr[1]), serial.EstimateChange(lr[0], lr[1]); got != want {
			t.Fatalf("EstimateChange(%d,%d): got %v, want %v", lr[0], lr[1], got, want)
		}
	}
	for _, r := range []int{1, 7, d / 2, d} {
		to := acc.EstimateSeriesTo(r)
		if len(to) != r {
			t.Fatalf("EstimateSeriesTo(%d): length %d", r, len(to))
		}
		for i := range to {
			if to[i] != we[i] {
				t.Fatalf("EstimateSeriesTo(%d)[%d]: got %v, want %v", r, i, to[i], we[i])
			}
		}
	}
}

// TestMergeShardedIntoNonEmpty checks that folding adds to, rather than
// replaces, existing server state.
func TestMergeShardedIntoNonEmpty(t *testing.T) {
	const d = 16
	iv := dyadic.Interval{Order: 1, Index: 3}
	srv := NewServer(d, 2)
	srv.IngestSum(iv, 5)
	acc := NewSharded(d, 2, 4)
	acc.IngestSum(2, iv, 7)
	srv.MergeSharded(acc)
	if got, want := srv.IntervalEstimate(iv), 2*float64(12); got != want {
		t.Fatalf("merged estimate: got %v, want %v", got, want)
	}
}

// TestShardedPanics checks argument validation.
func TestShardedPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("d not pow2", func() { NewSharded(7, 1, 1) })
	mustPanic("zero shards", func() { NewSharded(8, 1, 0) })
	mustPanic("bad scale", func() { NewSharded(8, 0, 1) })
	acc := NewSharded(8, 1, 2)
	mustPanic("bad bit", func() { acc.Ingest(0, Report{Order: 0, J: 1, Bit: 0}) })
	mustPanic("bad order", func() { acc.Register(0, 99) })
	srv := NewServer(16, 1)
	mustPanic("incompatible merge", func() { srv.MergeSharded(acc) })
}

// TestPrefixSeriesEqualsEstimateAt: at every horizon d ∈ {2 … 2¹²},
// over interval sums wide enough that every float addition rounds, the
// series kernel's out[t−1] is Sharded.EstimateAt(t) and Server.EstimateAt(t)
// bit for bit, for every t — the identity a served prefix-series memo
// answers point reads by — and so is every row of a domain matrix's
// EstimateSeries and EstimateAllSeries against its EstimateAt.
func TestPrefixSeriesEqualsEstimateAt(t *testing.T) {
	const scale = 3.7
	g := rng.New(26, 1)
	for d := 2; d <= 1<<12; d *= 2 {
		acc := NewSharded(d, scale, 2)
		srv := NewServer(d, scale)
		for flat := 0; flat < acc.Tree().Size(); flat++ {
			iv := acc.Tree().IntervalAt(flat)
			sum := int64(g.Uint64()>>uint(g.IntN(64))) * int64(1-2*g.IntN(2)) >> 12
			acc.IngestSum(flat%2, iv, sum)
			srv.IngestSum(iv, sum)
		}
		_, _, sums := acc.Fold()
		out := make([]float64, d)
		acc.PrefixSeries(sums, out)
		for tt := 1; tt <= d; tt++ {
			got := math.Float64bits(out[tt-1])
			if want := math.Float64bits(acc.EstimateAt(tt)); got != want {
				t.Fatalf("d=%d t=%d: series entry %v, Sharded.EstimateAt %v", d, tt, out[tt-1], acc.EstimateAt(tt))
			}
			if want := math.Float64bits(srv.EstimateAt(tt)); got != want {
				t.Fatalf("d=%d t=%d: series entry %v, Server.EstimateAt %v", d, tt, out[tt-1], srv.EstimateAt(tt))
			}
		}
		// The truncated kernel is a prefix of the full one.
		r := 1 + g.IntN(d)
		for i, v := range acc.EstimateSeriesTo(r) {
			if math.Float64bits(v) != math.Float64bits(out[i]) {
				t.Fatalf("d=%d: EstimateSeriesTo(%d)[%d] = %v, full series %v", d, r, i, v, out[i])
			}
		}

		// The matrix rows: the Boolean row above as row 1 of three, the
		// other two with their own sums.
		const m = 3
		stride := RawStride(d)
		raw := make([]int64, m*stride)
		acc.FoldInto(nil, raw[stride:2*stride])
		for _, x := range []int{0, 2} {
			_, _, rowSums := SplitRaw(d, raw[x*stride:(x+1)*stride])
			for f := range rowSums {
				rowSums[f] = int64(g.Uint64()>>uint(g.IntN(64))) * int64(1-2*g.IntN(2)) >> 12
			}
		}
		dom := NewDomainSharded(d, m, scale, 2)
		if err := dom.MergeRaw(raw); err != nil {
			t.Fatal(err)
		}
		all := dom.EstimateAllSeries()
		for x := 0; x < m; x++ {
			series := dom.EstimateSeries(x)
			for tt := 1; tt <= d; tt++ {
				want := math.Float64bits(dom.EstimateAt(x, tt))
				if math.Float64bits(series[tt-1]) != want || math.Float64bits(all[x][tt-1]) != want {
					t.Fatalf("d=%d item %d t=%d: EstimateSeries %v, EstimateAllSeries %v, EstimateAt %v", d, x, tt, series[tt-1], all[x][tt-1], dom.EstimateAt(x, tt))
				}
			}
		}
		if !slices.Equal(all[1], out) {
			t.Fatalf("d=%d: matrix row 1 series differs from the Boolean series over the same sums", d)
		}
	}
}
