package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testMeta() Meta {
	return Meta{Mechanism: "futurerand", D: 256, K: 4, Eps: 1, Scale: 17.25}
}

// collect replays the WAL in dir and returns the payloads seen.
func collect(t *testing.T, dir string, opts ReplayOptions) (payloads [][]byte, last uint64, n int) {
	t.Helper()
	last, n, err := ReplayWAL(dir, opts, func(seq uint64, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	return payloads, last, n
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma gamma")}
	for i, p := range want {
		// A payload handed over in parts is the record of their
		// concatenation.
		seq, err := w.Append(p[:i], p[i:])
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	if fi, err := os.Stat(segPath(dir, 1)); err != nil || fi.Size() != w.AppendedBytes() {
		t.Fatalf("AppendedBytes = %d, segment on disk: %v, %v", w.AppendedBytes(), fi, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, last, n := collect(t, dir, ReplayOptions{})
	if last != 3 || n != 3 {
		t.Fatalf("replay: last=%d n=%d", last, n)
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("payload %d: %q", i, got[i])
		}
	}

	// The After cursor skips the superseded prefix.
	got, last, n = collect(t, dir, ReplayOptions{After: 2})
	if last != 3 || n != 1 || string(got[0]) != "gamma gamma" {
		t.Fatalf("replay after 2: last=%d n=%d got=%q", last, n, got)
	}
}

func TestWALReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w2.Append([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("seq after reopen: %d", seq)
	}
	w2.Close()
	if _, last, n := collect(t, dir, ReplayOptions{}); last != 2 || n != 2 {
		t.Fatalf("after reopen: last=%d n=%d", last, n)
	}
}

func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates.
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSeqs(dir, walSegPrefix, walSegSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 {
		t.Fatalf("segments after 5 tiny appends: %d", len(segs))
	}
	// A snapshot at cursor 3 supersedes segments holding records 1..3.
	if err := w.Compact(3); err != nil {
		t.Fatal(err)
	}
	segs, _ = listSeqs(dir, walSegPrefix, walSegSuffix)
	if len(segs) != 2 {
		t.Fatalf("segments after compaction: %d (%v)", len(segs), segs)
	}
	got, last, n := collect(t, dir, ReplayOptions{After: 3})
	if last != 5 || n != 2 || string(got[0]) != "payload-3" || string(got[1]) != "payload-4" {
		t.Fatalf("replay after compaction: last=%d n=%d got=%q", last, n, got)
	}
	w.Close()
}

func TestWALSequenceSurvivesFullCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact(3); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// A fresh open with MinSeq (the snapshot cursor) must not reuse
	// sequence numbers the snapshot already covers.
	w2, err := OpenWAL(dir, WALOptions{MinSeq: 3})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w2.Append([]byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("seq after full compaction: %d", seq)
	}
	w2.Close()
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := listSeqs(dir, walSegPrefix, walSegSuffix)
	path := segPath(dir, segs[len(segs)-1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: cut it short by a few bytes.
	if err := os.Truncate(path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	// Strict replay fails with a descriptive error wrapping ErrTornTail.
	_, _, err = ReplayWAL(dir, ReplayOptions{}, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("strict replay of torn tail: %v", err)
	}
	if !strings.Contains(err.Error(), "torn final WAL record") {
		t.Fatalf("torn-tail error not descriptive: %v", err)
	}

	// Tolerant replay stops cleanly after the intact prefix.
	var n int
	last, count, err := ReplayWAL(dir, ReplayOptions{TolerateTornTail: true}, func(uint64, []byte) error { n++; return nil })
	if err != nil || last != 2 || count != 2 || n != 2 {
		t.Fatalf("tolerant replay: last=%d count=%d n=%d err=%v", last, count, n, err)
	}

	// Reopening for append truncates the torn tail and continues.
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := w2.Append([]byte("after")); err != nil || seq != 3 {
		t.Fatalf("append after torn tail: seq=%d err=%v", seq, err)
	}
	w2.Close()
	if _, last, n := collect(t, dir, ReplayOptions{}); last != 3 || n != 3 {
		t.Fatalf("replay after truncate+append: last=%d n=%d", last, n)
	}
}

func TestWALMidStreamCorruptionIsNotTolerated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := listSeqs(dir, walSegPrefix, walSegSuffix)
	path := segPath(dir, segs[0])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record: a checksum mismatch with
	// more records following is corruption, tolerated or not.
	b[headerLen+recordHeaderLen] ^= 0xff
	if err := os.WriteFile(path, b, 0o666); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []ReplayOptions{{}, {TolerateTornTail: true}} {
		_, _, err := ReplayWAL(dir, opts, func(uint64, []byte) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "corrupt record") {
			t.Fatalf("opts %+v: corrupt record error missing, got %v", opts, err)
		}
	}
}

func TestWALVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	path := segPath(dir, 1)
	b, _ := os.ReadFile(path)
	b[headerLen-1] = walVersion + 1
	os.WriteFile(path, b, 0o666)
	_, _, err = ReplayWAL(dir, ReplayOptions{}, func(uint64, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "unsupported WAL version") {
		t.Fatalf("version mismatch: %v", err)
	}
	// OpenWAL must refuse it too, not silently append to an alien file.
	if _, err := OpenWAL(dir, WALOptions{}); err == nil {
		t.Fatal("OpenWAL accepted a version-mismatched segment")
	}
}

func TestWALMissingSegmentAfterCursorDetected(t *testing.T) {
	// fourSegs builds a log with records 1..4, one per segment.
	fourSegs := func(t *testing.T) string {
		dir := t.TempDir()
		w, err := OpenWAL(dir, WALOptions{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := w.Append([]byte("p")); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		return dir
	}

	// Snapshot cursor 1, segment 1 already compacted away — and then
	// the segment holding record 2 goes missing too. The surviving log
	// starts past the cursor: silently recovering would lose record 2.
	dir := fourSegs(t)
	os.Remove(segPath(dir, 1))
	os.Remove(segPath(dir, 2))
	_, _, err := ReplayWAL(dir, ReplayOptions{After: 1}, func(uint64, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing post-cursor segment not detected: %v", err)
	}

	// A hole between surviving records is a plain sequence gap.
	dir = fourSegs(t)
	os.Remove(segPath(dir, 2))
	_, _, err = ReplayWAL(dir, ReplayOptions{}, func(uint64, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("sequence gap not detected: %v", err)
	}

	// Compaction up to the cursor is the legitimate shape: the log
	// starting exactly at cursor+1 replays cleanly.
	dir = fourSegs(t)
	os.Remove(segPath(dir, 1))
	os.Remove(segPath(dir, 2))
	os.Remove(segPath(dir, 3))
	if _, last, n := collect(t, dir, ReplayOptions{After: 3}); last != 4 || n != 1 {
		t.Fatalf("after legit compaction: last=%d n=%d", last, n)
	}
}

func TestWALHeaderlessNewestSegmentIsCrashArtifact(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// A crash between segment creation and the header write leaves a
	// short (here: empty) newest segment. It holds no records, so both
	// replay and reopening must shrug it off.
	if err := os.WriteFile(segPath(dir, 3), []byte("RTF"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, last, n := collect(t, dir, ReplayOptions{}); last != 2 || n != 2 {
		t.Fatalf("replay around header-less segment: last=%d n=%d", last, n)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The artifact is removed and numbering continues where it left off.
	if seq, err := w2.Append([]byte("y")); err != nil || seq != 3 {
		t.Fatalf("append after artifact removal: seq=%d err=%v", seq, err)
	}
	w2.Close()
	if _, last, n := collect(t, dir, ReplayOptions{}); last != 3 || n != 3 {
		t.Fatalf("replay after reopen: last=%d n=%d", last, n)
	}
}

func TestWALCompactedPrefixWithoutSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact(2); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// The log now starts at record 3. Replaying with no snapshot
	// (After 0 — say the operator deleted a corrupt snapshot) must not
	// silently serve a third of the data.
	_, _, err = ReplayWAL(dir, ReplayOptions{}, func(uint64, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("compacted prefix without snapshot: %v", err)
	}
}

func TestCleanTemp(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, &Snapshot{Cursor: 1, Meta: testMeta()}, false); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "snap-12345.tmp")
	if err := os.WriteFile(stale, []byte("half-written"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := CleanTemp(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived: %v", err)
	}
	if _, found, err := LoadLatestSnapshot(dir); err != nil || !found {
		t.Fatalf("real snapshot harmed by CleanTemp: found=%v err=%v", found, err)
	}
	if err := CleanTemp(filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("CleanTemp on a missing dir: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := &Snapshot{Cursor: 42, Meta: testMeta(), State: []byte{1, 2, 3, 4, 5}}
	if err := WriteSnapshot(dir, s, true); err != nil {
		t.Fatal(err)
	}
	got, found, err := LoadLatestSnapshot(dir)
	if err != nil || !found {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	if got.Cursor != 42 || got.Meta != s.Meta || string(got.State) != string(s.State) {
		t.Fatalf("round trip: %+v", got)
	}

	// A later snapshot supersedes; compaction keeps the newest two.
	for _, cur := range []uint64{50, 60} {
		if err := WriteSnapshot(dir, &Snapshot{Cursor: cur, Meta: testMeta(), State: []byte{9}}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := CompactSnapshots(dir, 2); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSeqs(dir, snapPrefix, snapSuffix)
	if len(seqs) != 2 || seqs[0] != 50 || seqs[1] != 60 {
		t.Fatalf("snapshots after compaction: %v", seqs)
	}
	got, _, err = LoadLatestSnapshot(dir)
	if err != nil || got.Cursor != 60 {
		t.Fatalf("latest after compaction: %+v err=%v", got, err)
	}
}

func TestSnapshotLoadMissing(t *testing.T) {
	if _, found, err := LoadLatestSnapshot(t.TempDir()); err != nil || found {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}
	if _, found, err := LoadLatestSnapshot(filepath.Join(t.TempDir(), "nope")); err != nil || found {
		t.Fatalf("missing dir: found=%v err=%v", found, err)
	}
}

// corruptSnapshot writes a snapshot, mutates its bytes, and returns the
// LoadLatestSnapshot error.
func corruptSnapshot(t *testing.T, mutate func([]byte) []byte) error {
	t.Helper()
	dir := t.TempDir()
	if err := WriteSnapshot(dir, &Snapshot{Cursor: 7, Meta: testMeta(), State: []byte("state")}, false); err != nil {
		t.Fatal(err)
	}
	path := snapPath(dir, 7)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(b), 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadLatestSnapshot(dir)
	return err
}

func TestSnapshotCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string
	}{
		{"bad checksum", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, "checksum mismatch"},
		{"version mismatch", func(b []byte) []byte { b[len(snapMagic)] = snapVersion + 9; return b }, "unsupported snapshot version"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }, "checksum mismatch"},
		{"short file", func(b []byte) []byte { return b[:5] }, "too short"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xaa) }, "checksum mismatch"},
	}
	for _, tc := range cases {
		err := corruptSnapshot(t, tc.mutate)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestDecodeSnapshotTruncatedFields(t *testing.T) {
	img := EncodeSnapshot(&Snapshot{Cursor: 9, Meta: testMeta(), State: []byte("abc")})
	// Every strict prefix must fail cleanly, never panic. (Prefixes
	// shorter than the checksummed payload fail the checksum; the loop
	// is really a no-panic sweep.)
	for cut := 0; cut < len(img); cut++ {
		if _, err := DecodeSnapshot(img[:cut]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", cut)
		}
	}
	if _, err := DecodeSnapshot(img); err != nil {
		t.Fatalf("full image: %v", err)
	}
}

func TestMetaCheck(t *testing.T) {
	m := testMeta()
	if err := m.Check(testMeta()); err != nil {
		t.Fatal(err)
	}
	other := testMeta()
	other.Eps = 0.5
	err := m.Check(other)
	if err == nil || !strings.Contains(err.Error(), "eps=0.5") {
		t.Fatalf("meta mismatch: %v", err)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 2048)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotEncode(b *testing.B) {
	s := &Snapshot{Cursor: 99, Meta: testMeta(), State: make([]byte, 16<<10)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(EncodeSnapshot(s)) == 0 {
			b.Fatal("empty image")
		}
	}
}
