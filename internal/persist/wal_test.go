package persist

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWALAppendSteadyStateAllocs pins the package doc's promise that
// appending allocates nothing once the log is warm, for the shape the
// durable journal passes: a batch header built in a stack array, then
// the frame's wire bytes.
func TestWALAppendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	body := make([]byte, 2048)
	appendOne := func() {
		var hdr [1 + binary.MaxVarintLen32]byte
		head := binary.AppendUvarint(append(hdr[:0], 1), uint64(len(body)))
		if _, err := w.Append(head, body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		appendOne()
	}
	if allocs := testing.AllocsPerRun(200, appendOne); allocs != 0 {
		t.Fatalf("steady-state Append allocates %.1f times per record, want 0", allocs)
	}
}

// TestWALAppendConcurrent hammers one log from many goroutines, so
// their appends share groups, and checks every caller got a distinct
// sequence number whose replayed payload is its own.
func TestWALAppendConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var mu sync.Mutex
	seqs := map[uint64]string{}
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				payload := fmt.Sprintf("w%d-%d", wr, i)
				// In two parts: the record is their concatenation.
				seq, err := w.Append([]byte(payload[:2]), []byte(payload[2:]))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				mu.Lock()
				if prev, dup := seqs[seq]; dup {
					t.Errorf("sequence %d assigned to both %q and %q", seq, prev, payload)
				}
				seqs[seq] = payload
				mu.Unlock()
			}
		}(wr)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("late")); err == nil {
		t.Fatal("Append after Close succeeded")
	}

	got, last, n := collect(t, dir, ReplayOptions{})
	if n != writers*perWriter || last != writers*perWriter {
		t.Fatalf("replayed %d records through %d, want %d", n, last, writers*perWriter)
	}
	for seq, payload := range seqs {
		if string(got[seq-1]) != payload {
			t.Fatalf("record %d = %q, caller was told %q", seq, got[seq-1], payload)
		}
	}
}

// occupyWriter plays a writer at work, so appends from now on queue.
func occupyWriter(w *WAL) {
	w.qmu.Lock()
	w.writing = true
	w.qmu.Unlock()
}

// waitQueued waits until n appends have queued behind the writer.
func waitQueued(t *testing.T, w *WAL, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		w.qmu.Lock()
		k := len(w.waiting)
		w.qmu.Unlock()
		if k == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d appends queued", k, n)
		}
	}
}

// releaseWriter ends the played writer's turn: the first queued append
// leads one group holding every append queued so far.
func releaseWriter(w *WAL) {
	w.qmu.Lock()
	w.handOffLocked()
	w.qmu.Unlock()
}

// TestGroupCommitterUncommittedGroupIsInvisible pins the crash contract
// of WAL.Append's group commit: an append queued behind a busy writer
// has touched no file, so a kill -9 then loses exactly the appends that
// have not returned, and replay sees only the acknowledged history. Once
// the writer is free, every queued append lands.
func TestGroupCommitterUncommittedGroupIsInvisible(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	occupyWriter(w)
	const queued = 4
	type ack struct {
		seq     uint64
		payload string
	}
	acks := make(chan ack, queued)
	for i := 0; i < queued; i++ {
		go func(payload string) {
			seq, err := w.Append([]byte(payload))
			if err != nil {
				t.Errorf("queued Append: %v", err)
			}
			acks <- ack{seq, payload}
		}(fmt.Sprintf("queued-%d", i))
	}
	waitQueued(t, w, queued)

	if last := w.LastSeq(); last != 1 {
		t.Fatalf("LastSeq = %d with appends queued, want 1", last)
	}
	if got, last, n := collect(t, dir, ReplayOptions{}); n != 1 || last != 1 || string(got[0]) != "acked" {
		t.Fatalf("replay with appends queued sees %q through %d, want only the acked record", got, last)
	}

	releaseWriter(w)
	want := map[uint64]string{1: "acked"}
	for i := 0; i < queued; i++ {
		a := <-acks
		if a.seq < 2 || a.seq > 1+queued || want[a.seq] != "" {
			t.Fatalf("queued append %q got sequence %d (told so far: %v)", a.payload, a.seq, want)
		}
		want[a.seq] = a.payload
	}
	got, last, n := collect(t, dir, ReplayOptions{})
	if n != 1+queued || last != 1+queued {
		t.Fatalf("replay after release: %d records through %d, want %d", n, last, 1+queued)
	}
	for seq, payload := range want {
		if string(got[seq-1]) != payload {
			t.Fatalf("record %d = %q, caller was told %q", seq, got[seq-1], payload)
		}
	}
}

// TestWALFailedWrite drives appends into a write error — the active
// segment's file is closed under the log — and checks the failure
// contract, for a lone caller and for a group queued behind a busy
// writer: every caller in the failed group gets the same error and no
// sequence number, the truncate that would undo the partial bytes fails
// too, so the log refuses every later append, and replay sees only the
// records before the failure.
func TestWALFailedWrite(t *testing.T) {
	for _, callers := range []int{1, 3} {
		t.Run(fmt.Sprintf("callers=%d", callers), func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"one", "two"} {
				if _, err := w.Append([]byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			w.mu.Lock()
			w.f.Close()
			w.mu.Unlock()

			if callers > 1 {
				occupyWriter(w)
			}
			errs := make(chan error, callers)
			for i := 0; i < callers; i++ {
				go func() {
					seq, err := w.Append([]byte("lost"))
					if err == nil || seq != 0 {
						t.Errorf("Append on a closed segment = %d, %v; want 0 and an error", seq, err)
					}
					errs <- err
				}()
			}
			if callers > 1 {
				waitQueued(t, w, callers)
				releaseWriter(w)
			}
			want := fmt.Sprintf("appending records 3..%d", 2+callers)
			for i := 0; i < callers; i++ {
				if err := <-errs; err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("failed append's error = %v, want the group's %q", err, want)
				}
			}
			if last := w.LastSeq(); last != 2 {
				t.Fatalf("LastSeq after the failed write = %d, want 2", last)
			}
			if _, err := w.Append([]byte("later")); err == nil || !strings.Contains(err.Error(), "WAL disabled") {
				t.Fatalf("Append after the failure = %v, want the sticky WAL-disabled refusal", err)
			}
			w.Close()
			got, last, n := collect(t, dir, ReplayOptions{})
			if last != 2 || n != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
				t.Fatalf("replay after the failure: last=%d n=%d got=%q; want only one, two", last, n, got)
			}
		})
	}
}
