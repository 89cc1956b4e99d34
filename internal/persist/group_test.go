package persist

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// replayAll replays every record in dir into a map of seq → payload.
func replayAll(t *testing.T, dir string) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	_, _, err := ReplayWAL(dir, ReplayOptions{}, func(seq uint64, payload []byte) error {
		got[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

// TestWALAppendBatch checks the group-commit primitive: consecutive
// sequence numbers in payload order, interchangeable with single
// appends, all replayable.
func TestWALAppendBatch(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := w.Append([]byte("single-1")); err != nil || seq != 1 {
		t.Fatalf("Append = %d, %v; want 1", seq, err)
	}
	first, err := w.AppendBatch([][]byte{[]byte("group-a"), []byte("group-b"), []byte("group-c")})
	if err != nil || first != 2 {
		t.Fatalf("AppendBatch = %d, %v; want first 2", first, err)
	}
	if seq, err := w.Append([]byte("single-2")); err != nil || seq != 5 {
		t.Fatalf("Append after batch = %d, %v; want 5", seq, err)
	}
	// An empty group consumes nothing.
	if first, err := w.AppendBatch(nil); err != nil || first != 6 {
		t.Fatalf("empty AppendBatch = %d, %v; want next seq 6 and no error", first, err)
	}
	if last := w.LastSeq(); last != 5 {
		t.Fatalf("LastSeq = %d, want 5", last)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	want := map[uint64]string{1: "single-1", 2: "group-a", 3: "group-b", 4: "group-c", 5: "single-2"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for seq, payload := range want {
		if got[seq] != payload {
			t.Fatalf("record %d = %q, want %q", seq, got[seq], payload)
		}
	}
}

// TestGroupCommitterConcurrent hammers one committer from many
// goroutines and checks every caller got a distinct sequence number
// whose replayed payload is its own.
func TestGroupCommitterConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gc := NewGroupCommitter(w, 200*time.Microsecond)

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
				seq, err := gc.Commit([]byte(payload[:2]), []byte(payload[2:]))
				if err != nil {
					t.Errorf("Commit: %v", err)
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
	gc.Close()
	if _, err := gc.Commit([]byte("late")); err == nil {
		t.Fatal("Commit after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir)
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
	for seq, payload := range seqs {
		if got[seq] != payload {
			t.Fatalf("record %d = %q, caller was told %q", seq, got[seq], payload)
		}
	}
}

// TestGroupCommitterUncommittedGroupIsInvisible pins the crash
// semantics of group commit: an append still waiting in a forming group
// has not touched the log, so a crash before the group commits loses
// exactly the unacknowledged batches and nothing else.
func TestGroupCommitterUncommittedGroupIsInvisible(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Committed history first, through its own short-lived committer.
	gc := NewGroupCommitter(w, 0)
	if _, err := gc.Commit([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	gc.Close()

	// A committer with an hour-long window forms a group that will not
	// commit within this test's lifetime: the caller blocks, the log
	// stays untouched — the moral equivalent of kill -9 between group
	// formation and commit.
	slow := NewGroupCommitter(w, time.Hour)
	started := make(chan struct{})
	go func() {
		close(started)
		slow.Commit([]byte("never-acked")) // blocks until Close; result discarded
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the entry reach the forming group

	if last := w.LastSeq(); last != 1 {
		t.Fatalf("LastSeq = %d with a group still forming, want 1", last)
	}
	got := replayAll(t, dir)
	if len(got) != 1 || got[1] != "acked" {
		t.Fatalf("replay sees %v, want only the acked record", got)
	}

	// Close flushes the pending group promptly despite the hour window —
	// shutdown is a flush, not a wait.
	done := make(chan struct{})
	go func() { slow.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cut the coalescing window short")
	}
	if got := replayAll(t, dir); got[2] != "never-acked" {
		t.Fatalf("flushed group not replayable: %v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
