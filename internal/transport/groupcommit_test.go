package transport

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// TestDurableGroupCommitRecovery exercises the group-commit path end to
// end: many connections ingest through one collector, so batches that
// reach the log while a write is in flight share WAL groups; after
// Close and recovery the accumulator must match a serial server,
// because every acknowledged batch was journaled before its Apply
// returned.
func TestDurableGroupCommitRecovery(t *testing.T) {
	const d, scale, workers, perWorker = 64, 3.0, 8, 30
	dir := t.TempDir()
	meta := durableMeta(d, scale)
	acc := protocol.NewSharded(d, scale, 4)
	dc, _, err := OpenDurable(acc, dir, meta, DurableOptions{
		SegmentBytes: 512,
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
				batch := []wire.Msg{
					wire.Hello(u, 0),
					wire.FromReport(protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: 1}),
				}
				if err := ingestRun(dc, w, batch); err != nil {
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

	batch := make([]wire.Msg, 0, 64)
	for i := 0; i < 64; i++ {
		bit := int8(1)
		if i%2 == 0 {
			bit = -1
		}
		batch = append(batch, wire.FromReport(protocol.Report{
			User: i, Order: i % 3, J: 1 + i%(d>>uint(i%3)), Bit: bit,
		}))
	}
	frame, err := appendBatch(nil, wire.MsgBatchAcked, batch)
	if err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(&loopReader{b: frame})
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

// TestWALReplayAllocsPerFrame pins recovery's allocations to the log's
// segments, not its records: one decoder reads every record, so
// OpenDurable over a log four times as long — frames large enough to
// outgrow the decoder's first read buffer — allocates no more often.
func TestWALReplayAllocsPerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const d, scale = 1 << 10, 3.0
	batch := make([]wire.Msg, 0, 2048)
	for i := 0; i < cap(batch); i++ {
		batch = append(batch, wire.FromReport(protocol.Report{User: 1000 + i, Order: i % 3, J: 1 + i%(d>>uint(i%3)), Bit: 1}))
	}
	frame, err := appendBatch(nil, wire.MsgBatchAcked, batch)
	if err != nil {
		t.Fatal(err)
	}
	open := func(dir string) *Durable {
		dc, _, err := OpenDurable(protocol.NewSharded(d, scale, 2), dir, durableMeta(d, scale), DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return dc
	}
	allocs := func(frames int) float64 {
		dir := t.TempDir()
		dc := open(dir)
		dec := wire.NewDecoder(&loopReader{b: frame})
		ingest := dc.Mode().Ingest()
		for i := 0; i < frames; i++ {
			f, err := dec.NextFrame(&ingest)
			if err == nil {
				err = dc.Apply(0, f.Recs, f.Wire)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		dc.Close()
		return testing.AllocsPerRun(5, func() { open(dir).Close() })
	}
	// The count is process-wide, so a goroutine another test left
	// winding down can add a stray allocation or two; a per-frame
	// allocation adds 24 at least.
	if short, long := allocs(8), allocs(32); long > short+2 {
		t.Fatalf("recovery allocates %.0f times over 8 frames, %.0f over 32: %.2f per frame, want 0", short, long, (long-short)/24)
	}
}

// TestDurableGroupCommitCrashLosesOnlyUnacked pins the crash contract
// under group commit: a batch queued behind a write in flight has
// written nothing to the log, so a kill -9 loses exactly batches whose
// Apply never returned — every acknowledged batch replays, none
// replays twice, and recovery rebuilds exactly the recovered batches.
// The kill is a copy of the data directory taken while many connections
// ingest, so their batches share WAL groups as the copy is read.
func TestDurableGroupCommitCrashLosesOnlyUnacked(t *testing.T) {
	const d, scale, workers, perWorker = 32, 2.0, 4, 200
	dir, crashDir := t.TempDir(), t.TempDir()
	meta := durableMeta(d, scale)
	acc := protocol.NewSharded(d, scale, 4)
	dc, _, err := OpenDurable(acc, dir, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	user := func(w, i int) int { return w*perWorker + i }
	batch := func(u int) []wire.Msg {
		return []wire.Msg{wire.Hello(u, 0), wire.FromReport(protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: 1})}
	}
	var started, acked [workers]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				started[w].Add(1)
				if err := ingestRun(dc, w, batch(user(w, i))); err != nil {
					t.Error(err)
					return
				}
				acked[w].Add(1)
			}
		}(w)
	}

	// Crash mid-stream: note what was acked, copy the log as a kill -9
	// would leave it, then note what had been sent by the end of the copy.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		total := int64(0)
		for w := range acked {
			total += acked[w].Load()
		}
		if total >= workers*perWorker/4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d batches acked", total)
		}
	}
	var ackedBefore, sentBy [workers]int
	for w := range acked {
		ackedBefore[w] = int(acked[w].Load())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for w := range started {
		sentBy[w] = int(started[w].Load())
	}
	wg.Wait()
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}

	// Which batches the crashed log holds: one record per batch, named
	// by its hello. Each connection's batches must be a prefix of what it
	// sent, covering everything acked before the copy.
	seen := map[int]bool{}
	ingest := dc.Mode().Ingest()
	_, _, err = persist.ReplayWAL(crashDir, persist.ReplayOptions{TolerateTornTail: true}, func(seq uint64, payload []byte) error {
		dec := wire.NewDecoder(bytes.NewReader(payload))
		for {
			f, err := dec.NextFrame(&ingest)
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			for _, r := range f.Recs {
				if r.Bit != 0 {
					continue
				}
				if seen[r.User] {
					t.Errorf("batch of user %d replays twice", r.User)
				}
				seen[r.User] = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := protocol.NewServer(d, scale)
	for w := 0; w < workers; w++ {
		n := 0
		for n < perWorker && seen[user(w, n)] {
			n++
		}
		for i := n; i < perWorker; i++ {
			if seen[user(w, i)] {
				t.Fatalf("connection %d: batch %d recovered after a gap at batch %d", w, i, n)
			}
		}
		if n < ackedBefore[w] || n > sentBy[w] {
			t.Fatalf("connection %d: %d batches recovered; %d were acked before the crash and %d sent by it",
				w, n, ackedBefore[w], sentBy[w])
		}
		for i := 0; i < n; i++ {
			u := user(w, i)
			serial.Register(0)
			serial.Ingest(protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: 1})
		}
	}

	// Recovery from the crashed log rebuilds exactly those batches.
	acc2 := protocol.NewSharded(d, scale, 1)
	dc2, rec, err := OpenDurable(acc2, crashDir, meta, DurableOptions{TolerateTornTail: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	if rec.Replayed != len(seen) {
		t.Fatalf("recovery replayed %d records, the log holds %d batches", rec.Replayed, len(seen))
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
