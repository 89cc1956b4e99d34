package protocol

import (
	"bytes"
	"math"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/rng"
)

// EstimateSeries returns item's â[1..d] from the live counters: the
// tests' whole-series read of one row.
func (s *DomainSharded) EstimateSeries(item int) []float64 {
	return s.EstimateSeriesTo(item, s.d)
}

// feedDomain drives a DomainSharded and one serial Server per item with
// the identical sequence of registers and ingests, so every test below
// holds the matrix to an independent reference: m dyadic accumulators
// that share no code with it beyond the state encoding.
func feedDomain(t *testing.T, d, m, shards, n int, seed uint64) (*DomainSharded, []*Server) {
	t.Helper()
	const scale = 2.5
	flat := NewDomainSharded(d, m, scale, shards)
	old := make([]*Server, m)
	for x := range old {
		old[x] = NewServer(d, scale)
	}
	g := rng.New(seed, 11)
	for i := 0; i < n; i++ {
		item := g.IntN(m)
		shard := g.IntN(shards)
		h := g.IntN(dyadic.NumOrders(d))
		if i%16 == 0 {
			flat.Register(shard, item, h)
			old[item].Register(h)
			continue
		}
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		r := Report{User: i, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit}
		flat.Ingest(shard, item, r)
		old[item].Ingest(r)
	}
	return flat, old
}

// serverRow is a serial server's state as one raw row.
func serverRow(srv *Server) []int64 {
	row := []int64{int64(srv.Users())}
	for h := 0; h < dyadic.NumOrders(srv.D()); h++ {
		row = append(row, int64(srv.UsersAtOrder(h)))
	}
	return append(row, srv.IntervalSums()...)
}

// TestDomainShardedMatchesPerItemLayout pins the claim of the flat
// counter matrix: every observable — estimates, folds, users, serialized
// state — is bit-for-bit identical to one serial Server per item, fed
// the same reports.
func TestDomainShardedMatchesPerItemLayout(t *testing.T) {
	const d, m, shards = 64, 8, 3
	flat, old := feedDomain(t, d, m, shards, 6000, 41)

	if flat.Users() == 0 {
		t.Fatal("no users registered; test drove nothing")
	}
	for x := range old {
		if got, want := flat.UsersAt(x), old[x].Users(); got != want {
			t.Fatalf("UsersAt(%d) = %d, per-item layout has %d", x, got, want)
		}
	}

	// Estimates: per-item point estimates and the item-major sweep must
	// both reproduce the old layout's float64s exactly (same summands,
	// same order, same rounding).
	for tm := 1; tm <= d; tm++ {
		all := flat.EstimateAllAt(tm)
		for x := range old {
			want := old[x].EstimateAt(tm)
			if got := flat.EstimateAt(x, tm); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("EstimateAt(%d, %d) = %v, per-item layout %v", x, tm, got, want)
			}
			if math.Float64bits(all[x]) != math.Float64bits(want) {
				t.Fatalf("EstimateAllAt(%d)[%d] = %v, per-item layout %v", tm, x, all[x], want)
			}
		}
	}
	for x := range old {
		want := old[x].EstimateSeries()
		got := flat.EstimateSeries(x)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("EstimateSeries(%d)[%d] = %v, per-item layout %v", x, i, got[i], want[i])
			}
		}
	}

	// Folds: the raw integers a cluster gateway ships must be equal.
	raw := make([]int64, m*RawStride(d))
	flat.FoldInto(raw)
	for x := range old {
		wu, wp, ws := SplitRaw(d, serverRow(old[x]))
		gu, gp, gs := SplitRaw(d, raw[x*RawStride(d):(x+1)*RawStride(d)])
		if gu != wu {
			t.Fatalf("FoldInto row %d users = %d, want %d", x, gu, wu)
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("FoldInto row %d perOrder[%d] = %d, want %d", x, i, gp[i], wp[i])
			}
		}
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("FoldInto row %d sums[%d] = %d, want %d", x, i, gs[i], ws[i])
			}
		}
	}

	// Serialized state: byte-identical payloads, so snapshots written
	// under either layout restore under the other.
	flatState := flat.MarshalState()
	oldState := MarshalDomainState(old)
	if !bytes.Equal(flatState, oldState) {
		t.Fatalf("MarshalState differs from MarshalDomainState: %d vs %d bytes", len(flatState), len(oldState))
	}
}

// TestDomainShardedStateCrossRestore round-trips snapshots across the
// two layouts in both directions: a flat snapshot restored into per-item
// servers and a per-item snapshot restored into a flat matrix must
// both reproduce identical estimates.
func TestDomainShardedStateCrossRestore(t *testing.T) {
	const d, m, shards = 32, 5, 2
	flat, old := feedDomain(t, d, m, shards, 3000, 97)
	state := flat.MarshalState()

	// Flat snapshot → fresh per-item servers.
	intoOld := make([]*Server, m)
	for x := range intoOld {
		intoOld[x] = NewServer(d, flat.Scale())
	}
	if err := RestoreDomainState(intoOld, state); err != nil {
		t.Fatalf("RestoreDomainState(flat snapshot): %v", err)
	}
	// Per-item snapshot → fresh flat matrix.
	intoFlat := NewDomainSharded(d, m, flat.Scale(), 4)
	if err := intoFlat.RestoreState(MarshalDomainState(old)); err != nil {
		t.Fatalf("DomainSharded.RestoreState(per-item snapshot): %v", err)
	}

	for tm := 1; tm <= d; tm++ {
		for x := 0; x < m; x++ {
			want := old[x].EstimateAt(tm)
			if got := intoOld[x].EstimateAt(tm); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("restored per-item EstimateAt(%d, %d) = %v, want %v", x, tm, got, want)
			}
			if got := intoFlat.EstimateAt(x, tm); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("restored flat EstimateAt(%d, %d) = %v, want %v", x, tm, got, want)
			}
		}
	}
}

// perItemRaw lays per-item servers out as one raw matrix.
func perItemRaw(old []*Server) []int64 {
	var raw []int64
	for _, srv := range old {
		raw = append(raw, serverRow(srv)...)
	}
	return raw
}

// TestDomainShardedMergeRaw checks that merging one layout's folds into
// the other reproduces the source exactly — the cluster merge path is
// raw-integer addition in both layouts — and that an accumulator built
// directly over the raw matrix is the same accumulator.
func TestDomainShardedMergeRaw(t *testing.T) {
	const d, m, shards = 32, 4, 2
	flat, old := feedDomain(t, d, m, shards, 2000, 7)

	merged := NewDomainSharded(d, m, flat.Scale(), 1)
	if err := merged.MergeRaw(perItemRaw(old)); err != nil {
		t.Fatalf("MergeRaw: %v", err)
	}
	over, err := DomainShardedOver(d, m, flat.Scale(), 0, 0, perItemRaw(old))
	if err != nil {
		t.Fatalf("DomainShardedOver: %v", err)
	}
	for tm := 1; tm <= d; tm++ {
		all, allOver := merged.EstimateAllAt(tm), over.EstimateAllAt(tm)
		for x := range old {
			want := math.Float64bits(old[x].EstimateAt(tm))
			if math.Float64bits(all[x]) != want || math.Float64bits(allOver[x]) != want {
				t.Fatalf("EstimateAllAt(%d)[%d]: merged %v, over %v, want %v", tm, x, all[x], allOver[x], old[x].EstimateAt(tm))
			}
		}
	}
	if !bytes.Equal(merged.MarshalState(), flat.MarshalState()) || !bytes.Equal(over.MarshalState(), flat.MarshalState()) {
		t.Fatal("merged flat state differs from directly ingested flat state")
	}

	// A malformed matrix must be rejected without modifying anything.
	before := merged.MarshalState()
	raw := perItemRaw(old)
	if err := merged.MergeRaw(raw[:len(raw)-1]); err == nil {
		t.Fatal("MergeRaw accepted a short matrix")
	}
	for _, bad := range []int{0, RawStride(d) + 2} { // a user count, a per-order count
		raw := perItemRaw(old)
		raw[bad] = -1
		if err := merged.MergeRaw(raw); err == nil {
			t.Fatalf("MergeRaw accepted a negative count at %d", bad)
		}
		if _, err := DomainShardedOver(d, m, flat.Scale(), 0, 0, raw); err == nil {
			t.Fatalf("DomainShardedOver accepted a negative count at %d", bad)
		}
	}
	if !bytes.Equal(before, merged.MarshalState()) {
		t.Fatal("failed merges modified state")
	}
}

// Scale returns the per-item estimator scale.
func (s *DomainSharded) Scale() float64 { return s.scale }

// UsersAt returns the number of users whose sampled target is item.
func (s *DomainSharded) UsersAt(item int) int {
	s.checkItem(item)
	s.locks.rlock()
	defer s.locks.runlock()
	return int(s.itemCell(item, 0))
}

// EstimateAllAt returns every item's â[t] in one item-major sweep over
// the flat counter rows. For each decomposition interval the per-item
// cross-shard integer sums are folded first, then scaled and
// accumulated — the identical float operations, in the identical
// order, as calling EstimateAt once per item, so the two are
// bit-for-bit equal; the sweep just touches each shard's matrix
// sequentially instead of chasing m separate accumulators. The caller
// owns the slice.
func (s *DomainSharded) EstimateAllAt(t int) []float64 {
	return s.EstimateAllAtInto(make([]float64, s.m), make([]int64, s.m), t)
}

// FoldInto overwrites dst (m rows of RawStride(d)) with every item's
// row: the whole counter matrix summed across shards.
func (s *DomainSharded) FoldInto(dst []int64) { s.FoldRowsInto(0, s.m, nil, dst) }
