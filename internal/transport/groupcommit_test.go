package transport

import (
	"sync"
	"testing"
	"time"

	"rtf/internal/persist"
	"rtf/internal/protocol"
)

// TestDurableGroupCommitRecovery exercises the group-commit path end to
// end: many connections ingest through a collector with a short
// coalescing window, so their batches share WAL groups; after Close and
// recovery the accumulator must match a serial server, because every
// acknowledged batch was journaled before its SendBatch returned.
func TestDurableGroupCommitRecovery(t *testing.T) {
	const d, scale, workers, perWorker = 64, 3.0, 8, 30
	dir := t.TempDir()
	meta := durableMeta(d, scale)
	acc := protocol.NewSharded(d, scale, 4)
	dc, _, err := OpenDurable(acc, dir, meta, DurableOptions{
		SegmentBytes:        512,
		GroupCommitInterval: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u := w*perWorker + i
				batch := []Msg{
					Hello(u, 0),
					FromReport(protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: 1}),
				}
				if err := dc.SendBatch(w, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}

	serial := protocol.NewServer(d, scale)
	for u := 0; u < workers*perWorker; u++ {
		serial.Register(0)
		serial.Ingest(protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: 1})
	}
	acc2 := protocol.NewSharded(d, scale, 1)
	_, rec, err := OpenDurable(acc2, dir, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed == 0 {
		t.Fatalf("nothing replayed: %+v", rec)
	}
	if acc2.Users() != serial.Users() {
		t.Fatalf("users after recovery: %d vs %d", acc2.Users(), serial.Users())
	}
	want := serial.EstimateSeries()
	for i, got := range acc2.EstimateSeries() {
		if got != want[i] {
			t.Fatalf("series[%d]: %v vs %v", i, got, want[i])
		}
	}
}

// TestDurableGroupCommitCrashLosesOnlyUnacked pins the crash contract
// under group commit: a batch whose group has formed but not committed
// has written nothing to the log, so a kill there loses exactly the
// batches whose SendBatch never returned — every acknowledged batch
// replays.
func TestDurableGroupCommitCrashLosesOnlyUnacked(t *testing.T) {
	const d, scale = 32, 2.0
	dir := t.TempDir()
	meta := durableMeta(d, scale)

	// Acked history through the direct path.
	acc := protocol.NewSharded(d, scale, 1)
	dc, _, err := OpenDurable(acc, dir, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acked := genMsgs(d, 10)
	if err := dc.SendBatch(0, acked); err != nil {
		t.Fatal(err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	ackedSeq := uint64(1)

	// A collector with an hour-long coalescing window: the next batch
	// joins a group that will not commit within this test, so its
	// SendBatch blocks, unacknowledged, its bytes never reaching a write
	// call — the state a kill -9 between group formation and commit
	// leaves behind.
	acc2 := protocol.NewSharded(d, scale, 1)
	dc2, _, err := OpenDurable(acc2, dir, meta, DurableOptions{GroupCommitInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	unackedDone := make(chan error, 1)
	go func() {
		unackedDone <- dc2.SendBatch(0, genMsgs(d, 3))
	}()
	select {
	case err := <-unackedDone:
		t.Fatalf("SendBatch returned (%v) inside the coalescing window", err)
	case <-time.After(20 * time.Millisecond):
	}

	// The log on disk holds only the acked batch; a recovery now (the
	// crash) replays it and nothing else.
	records := 0
	last, _, err := persist.ReplayWAL(dir, persist.ReplayOptions{}, func(seq uint64, payload []byte) error {
		records++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != ackedSeq || records != 1 {
		t.Fatalf("log holds %d records through seq %d; want only the acked record %d", records, last, ackedSeq)
	}

	// Close flushes the pending group — the blocked SendBatch acks, and
	// from then on the batch is recoverable like any other.
	if err := dc2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-unackedDone; err != nil {
		t.Fatalf("SendBatch after flush: %v", err)
	}
	acc3 := protocol.NewSharded(d, scale, 1)
	_, rec, err := OpenDurable(acc3, dir, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 2 {
		t.Fatalf("replayed %d records after flush, want 2", rec.Replayed)
	}
}

// loopReader replays one byte stream forever.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestDurableIngestSteadyStateAllocs pins the allocation behavior of
// the durable hot path, on both entries: once the decoder's and the
// WAL's buffers are warm, the served path — decode a frame, validate it,
// journal its wire bytes, apply it — allocates nothing, and neither does
// SendBatch, which has no wire bytes and encodes the run into a pooled
// buffer instead.
func TestDurableIngestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const d, scale = 1 << 10, 3.0
	dir := t.TempDir()
	acc := protocol.NewSharded(d, scale, 4)
	dc, _, err := OpenDurable(acc, dir, durableMeta(d, scale), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	batch := make([]Msg, 0, 64)
	for i := 0; i < 64; i++ {
		bit := int8(1)
		if i%2 == 0 {
			bit = -1
		}
		batch = append(batch, FromReport(protocol.Report{
			User: i, Order: i % 3, J: 1 + i%(d>>uint(i%3)), Bit: bit,
		}))
	}
	frame, err := appendBatch(nil, MsgBatchAcked, batch)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&loopReader{b: frame})
	ingest := dc.Mode().Ingest()
	served := func() {
		f, err := dec.NextFrame(&ingest)
		if err == nil {
			err = dc.Apply(0, f.Recs, f.Wire)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	unserved := func() {
		if err := dc.SendBatch(0, batch); err != nil {
			t.Fatal(err)
		}
	}
	for name, run := range map[string]func(){"decode → Apply with wire": served, "SendBatch": unserved} {
		for i := 0; i < 8; i++ {
			run() // warm the decoder, the scratch pool and the WAL's record buffer
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("steady-state durable %s allocates %.1f times per batch, want 0", name, allocs)
		}
	}
}
