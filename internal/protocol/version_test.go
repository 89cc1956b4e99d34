package protocol

import (
	"sync"
	"testing"

	"rtf/internal/dyadic"
)

// The version stamp must move once per run — a served Lock…Unlock run,
// even an empty one, or a one-call mutator — and never on a pure read or
// the version-silent per-report Ingest.
func TestShardedVersionAdvances(t *testing.T) {
	acc := NewSharded(8, 1.5, 4)
	v0 := acc.Version()
	if v0 != 0 {
		t.Fatalf("fresh accumulator version = %d, want 0", v0)
	}

	acc.Register(1, 0)
	if v := acc.Version(); v <= v0 {
		t.Fatalf("Register did not advance version: %d -> %d", v0, v)
	}
	v1 := acc.Version()

	acc.IngestSum(2, dyadic.Interval{Order: 0, Index: 3}, 5)
	if v := acc.Version(); v <= v1 {
		t.Fatalf("IngestSum did not advance version: %d -> %d", v1, v)
	}
	v2 := acc.Version()

	// Ingest is deliberately version-silent; the batch writer advances.
	acc.Ingest(0, Report{Order: 0, J: 1, Bit: 1})
	if v := acc.Version(); v != v2 {
		t.Fatalf("Ingest alone moved version: %d -> %d", v2, v)
	}
	acc.Lock(0).Unlock()
	if v := acc.Version(); v <= v2 {
		t.Fatalf("an empty run did not advance version: %d -> %d", v2, v)
	}
	v3 := acc.Version()

	users, perOrder, sums := acc.Fold()
	if v := acc.Version(); v != v3 {
		t.Fatalf("Fold (a read) moved version: %d -> %d", v3, v)
	}
	if err := acc.MergeRaw(users, perOrder, sums); err != nil {
		t.Fatalf("MergeRaw: %v", err)
	}
	if v := acc.Version(); v <= v3 {
		t.Fatalf("MergeRaw did not advance version: %d -> %d", v3, v)
	}

	_ = acc.EstimateAt(4)
	_ = acc.EstimateSeries()
	if v, want := acc.Version(), acc.Version(); v != want {
		t.Fatalf("reads moved version: %d != %d", v, want)
	}

	other := NewSharded(8, 1.5, 2)
	if err := other.RestoreState(acc.MarshalState()); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if v := other.Version(); v == 0 {
		t.Fatal("RestoreState did not advance version")
	}

	// A served run advances exactly once, however many records it writes
	// and only when it ends; a read never does.
	v4 := acc.Version()
	w := acc.Lock(1)
	w.Register(0, 2)
	for j := 1; j <= 4; j++ {
		w.Ingest(0, Report{Order: 1, J: j, Bit: 1})
	}
	if v := acc.Version(); v != v4 {
		t.Fatalf("an unfinished run moved version: %d -> %d", v4, v)
	}
	w.Unlock()
	if v := acc.Version(); v != v4+1 {
		t.Fatalf("a run of 5 records moved version %d -> %d, want exactly one step", v4, v)
	}
	_ = acc.Users()
	_ = acc.EstimateAt(8)
	_ = acc.EstimateSeriesTo(3)
	_ = acc.EstimateChange(2, 7)
	_, _, _ = acc.Fold()
	acc.FoldInto(acc.Columns(1, 5), make([]int64, ScopedStride(8, 1, 5)))
	_ = acc.MarshalState()
	_ = acc.Snapshot()
	if v := acc.Version(); v != v4+1 {
		t.Fatalf("reads moved version: %d -> %d", v4+1, v)
	}
}

func TestDomainShardedVersionAdvances(t *testing.T) {
	acc := NewDomainSharded(8, 4, 2.0, 4)
	v0 := acc.Version()
	if v0 != 0 {
		t.Fatalf("fresh accumulator version = %d, want 0", v0)
	}

	acc.Register(1, 2, 0)
	if v := acc.Version(); v <= v0 {
		t.Fatalf("Register did not advance version: %d -> %d", v0, v)
	}
	v1 := acc.Version()

	// Ingest is deliberately version-silent; the batch writer advances.
	acc.Ingest(3, 2, Report{Order: 0, J: 1, Bit: 1})
	if v := acc.Version(); v != v1 {
		t.Fatalf("Ingest alone moved version: %d -> %d", v1, v)
	}
	acc.AdvanceVersion(3)
	if v := acc.Version(); v <= v1 {
		t.Fatalf("AdvanceVersion did not advance version: %d -> %d", v1, v)
	}
	v2 := acc.Version()

	raw := make([]int64, 4*RawStride(8))
	acc.FoldInto(raw)
	if v := acc.Version(); v != v2 {
		t.Fatalf("FoldInto (a read) moved version: %d -> %d", v2, v)
	}
	if err := acc.MergeRaw(raw); err != nil {
		t.Fatalf("MergeRaw: %v", err)
	}
	if v := acc.Version(); v <= v2 {
		t.Fatalf("MergeRaw did not advance version: %d -> %d", v2, v)
	}
	v3 := acc.Version()

	state := acc.MarshalState()
	if v := acc.Version(); v != v3 {
		t.Fatalf("MarshalState (a read) moved version: %d -> %d", v3, v)
	}
	other := NewDomainSharded(8, 4, 2.0, 4)
	if err := other.RestoreState(state); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if v := other.Version(); v == 0 {
		t.Fatal("RestoreState did not advance version")
	}

	// A served run advances exactly once, however many records it writes
	// and only when it ends; a read never does.
	v4 := acc.Version()
	w := acc.Lock(2)
	w.Register(3, 1)
	for j := 1; j <= 4; j++ {
		w.Ingest(j%4, Report{Order: 1, J: j, Bit: -1})
	}
	if v := acc.Version(); v != v4 {
		t.Fatalf("an unfinished run moved version: %d -> %d", v4, v)
	}
	w.Unlock()
	if v := acc.Version(); v != v4+1 {
		t.Fatalf("a run of 5 records moved version %d -> %d, want exactly one step", v4, v)
	}
	_ = acc.Users()
	_ = acc.UsersAt(3)
	_ = acc.EstimateAt(1, 8)
	_ = acc.EstimateAllAt(5)
	_ = acc.EstimateSeriesTo(2, 6)
	_ = acc.EstimateAllSeries()
	acc.FoldRowsInto(0, 4, acc.Columns(3, 3), make([]int64, 4*ScopedStride(8, 3, 3)))
	acc.FoldInto(raw)
	_ = acc.MarshalState()
	if v := acc.Version(); v != v4+1 {
		t.Fatalf("reads moved version: %d -> %d", v4+1, v)
	}
}

// Version is a sum of monotone per-shard counters, so a reader that
// observes the same stamp across two folds is guaranteed no advance
// completed in between — even with advancing writers on many shards.
func TestVersionMonotoneUnderConcurrentAdvance(t *testing.T) {
	acc := NewDomainSharded(8, 4, 2.0, 8)
	const writers, advances = 8, 500
	stop := make(chan struct{})
	var observed []uint64
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < advances; i++ {
				acc.Ingest(w, i%4, Report{Order: 0, J: 1, Bit: 1})
				acc.AdvanceVersion(w)
			}
		}(w)
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				observed = append(observed, acc.Version())
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	for i := 1; i < len(observed); i++ {
		if observed[i] < observed[i-1] {
			t.Fatalf("version went backwards: %d then %d", observed[i-1], observed[i])
		}
	}
	if got, want := acc.Version(), uint64(writers*advances); got != want {
		t.Fatalf("final version %d, want %d", got, want)
	}
}
