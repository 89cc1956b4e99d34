package protocol

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/rng"
)

// This file holds a shard's counter matrix to its allocation rule: a
// shard gets a matrix from its first writer, reads fold only the shards
// that have one, and neither choice shows in any read.

// applyRuns feeds runs to acc as one Lock…Unlock run each, every run on
// shard(i), i its index.
func applyRuns(acc *DomainSharded, runs [][]lockRec, shard func(i int) int) {
	for i, run := range runs {
		w := acc.Lock(shard(i))
		for _, rc := range run {
			if rc.hello {
				w.Register(rc.item, rc.r.Order)
			} else {
				w.Ingest(rc.item, rc.r)
			}
		}
		w.Unlock()
	}
}

// sameReads fails unless every read of got equals want's bit for bit:
// the sweep and the point estimate at every t, every series, a scoped
// and a full fold, the serialized state and the user count.
func sameReads(t *testing.T, got, want *DomainSharded) {
	t.Helper()
	d, m := want.d, want.m
	if got.Users() != want.Users() {
		t.Fatalf("Users = %d, want %d", got.Users(), want.Users())
	}
	est, tmp := make([]float64, m), make([]int64, m)
	for tt := 1; tt <= d; tt++ {
		g, w := got.EstimateAllAtInto(est, tmp, tt), want.EstimateAllAt(tt)
		for x := range w {
			if math.Float64bits(g[x]) != math.Float64bits(w[x]) {
				t.Fatalf("sweep at t=%d: item %d = %v, want %v", tt, x, g[x], w[x])
			}
			if a, b := got.EstimateAt(x, tt), want.EstimateAt(x, tt); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("EstimateAt(%d, %d) = %v, want %v", x, tt, a, b)
			}
		}
	}
	for x := 0; x < m; x++ {
		if !slices.Equal(got.EstimateSeries(x), want.EstimateSeries(x)) {
			t.Fatalf("EstimateSeries(%d) differs", x)
		}
		if !slices.Equal(got.EstimateSeriesTo(x, d/2), want.EstimateSeriesTo(x, d/2)) {
			t.Fatalf("EstimateSeriesTo(%d, %d) differs", x, d/2)
		}
	}
	ga, wa := got.EstimateAllSeries(), want.EstimateAllSeries()
	for x := range wa {
		if !slices.Equal(ga[x], wa[x]) {
			t.Fatalf("EstimateAllSeries row %d differs", x)
		}
	}
	for _, sc := range [][2]int{{0, 0}, {1, d / 2}, {3, d - 1}} {
		cols := want.Columns(sc[0], sc[1])
		n := RawStride(d)
		if cols != nil {
			n = want.sumOff + len(cols)
		}
		g, w := make([]int64, (m-1)*n), make([]int64, (m-1)*n)
		for i := range g {
			g[i] = -7 // a fold overwrites, it does not add
		}
		got.FoldRowsInto(1, m, cols, g)
		want.FoldRowsInto(1, m, cols, w)
		if !slices.Equal(g, w) {
			t.Fatalf("FoldRowsInto(1, %d) over [%d..%d] differs", m, sc[0], sc[1])
		}
	}
	if !bytes.Equal(got.MarshalState(), want.MarshalState()) {
		t.Fatal("MarshalState differs")
	}
}

// TestShardsAllocateOnFirstWrite: an accumulator over eight shards
// written through one holds one matrix, and every read of it is a
// one-shard accumulator's fed the same runs; written through three it
// holds three; never written it holds none and reads as per-item serial
// servers that were never fed.
func TestShardsAllocateOnFirstWrite(t *testing.T) {
	const d, m, scale = 32, 6, 2.5
	runs := lockRuns(rng.New(21, 22), d, m, 1, 40, 30)[0]
	one := NewDomainSharded(d, m, scale, 1)
	applyRuns(one, runs, func(int) int { return 0 })
	cells := int64(m*RawStride(d)) * 8

	fresh := NewDomainSharded(d, m, scale, 8)
	if n, b := fresh.Resident(); n != 0 || b != 0 {
		t.Fatalf("a fresh accumulator holds %d matrices (%d bytes), want none", n, b)
	}
	idle := make([]*Server, m)
	for x := range idle {
		idle[x] = NewServer(d, scale)
	}
	if !bytes.Equal(fresh.MarshalState(), MarshalDomainState(idle)) {
		t.Fatal("a never-written accumulator's state differs from unfed serial servers'")
	}
	sameReads(t, fresh, NewDomainSharded(d, m, scale, 1))

	for _, tc := range []struct {
		name  string
		shard func(i int) int
		want  int
	}{
		{"one shard", func(int) int { return 5 }, 1},
		{"three shards", func(i int) int { return []int{1, 4, 6}[i%3] }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acc := NewDomainSharded(d, m, scale, 8)
			applyRuns(acc, runs, tc.shard)
			if n, b := acc.Resident(); n != tc.want || b != int64(tc.want)*cells {
				t.Fatalf("Resident = %d matrices, %d bytes; want %d, %d", n, b, tc.want, int64(tc.want)*cells)
			}
			sameReads(t, acc, one)
		})
	}

	// The Boolean view allocates the same way.
	b := NewSharded(d, scale, 4)
	b.IngestSum(3, dyadic.Interval{Order: 1, Index: 2}, 5)
	if n, _ := b.Resident(); n != 1 {
		t.Fatalf("Boolean view written through one shard holds %d matrices", n)
	}
}

// TestFirstWritersRaceASweep: eight writers take eight fresh shards for
// the first time while readers sweep, fold and marshal; under -race a
// read that looked at a shard's matrix outside its lock fails here, and
// at quiescence the state is a serial server's per item.
func TestFirstWritersRaceASweep(t *testing.T) {
	const d, m, shards, writers, scale = 16, 4, 8, 8, 1.5
	runs := lockRuns(rng.New(23, 24), d, m, writers, 3, 20)
	acc := NewDomainSharded(d, m, scale, shards)
	est, tmp := make([]float64, m), make([]int64, m)
	hammer(runs, shards, 1, func(shard int, run []lockRec) {
		applyRuns(acc, [][]lockRec{run}, func(int) int { return shard })
	}, func(i int) {
		_ = acc.EstimateAllAtInto(est, tmp, 1+i%d)
		acc.FoldRowsInto(0, m, nil, make([]int64, m*RawStride(d)))
		_ = acc.MarshalState()
		_ = acc.Users()
		_, _ = acc.Resident()
	})
	if n, _ := acc.Resident(); n != shards {
		t.Fatalf("%d writers on %d shards left %d matrices", writers, shards, n)
	}
	serial := NewDomainSharded(d, m, scale, 1)
	for _, wr := range runs {
		applyRuns(serial, wr, func(int) int { return 0 })
	}
	sameReads(t, acc, serial)
}
