package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// WAL record framing: a fixed 16-byte header — payload length (uint32),
// CRC-32/IEEE over sequence number and payload (uint32), sequence
// number (uint64) — followed by the payload. Sequence numbers start at
// 1 and increase by exactly one per record across segment boundaries.
const recordHeaderLen = 16

// WALOptions configures OpenWAL.
type WALOptions struct {
	// SegmentBytes is the rotation threshold: a segment that reaches
	// this size is closed and a new one started. Default 4 MiB.
	SegmentBytes int64
	// Fsync syncs the segment file after every append, making records
	// durable against power loss, not just process death. Appends are
	// single write calls either way, so a killed process loses nothing
	// that Append returned for.
	Fsync bool
	// MinSeq is the sequence number numbering must continue after, even
	// when every segment has been compacted away — pass the newest
	// snapshot's cursor, so fresh records stay beyond it.
	MinSeq uint64
}

// WAL is an append-only write-ahead log over rotated segment files in a
// data directory. Append is safe for concurrent use, and concurrent
// appends commit in groups: see Append.
type WAL struct {
	dir  string
	opts WALOptions
	crc  *crc32Scratch

	// mu guards the file side. A group's writer holds it across the
	// write and the sync.
	mu     sync.Mutex
	f      *os.File
	size   int64
	last   uint64 // last assigned sequence number
	wrote  int64  // bytes written to segment files since open
	close  bool
	broken error // sticky: a failed append left bytes we could not undo

	// qmu guards the queue: the records waiting for the next group, the
	// channels their callers wait on, and whether a writer is at work.
	// It is never held together with mu.
	qmu     sync.Mutex
	writing bool
	next    []byte              // queued records, framed but not yet stamped
	waiting []chan appendResult // callers of next's records 1.., in order
	spare   []byte              // next's other buffer (ping-pongs with it)
	spareW  []chan appendResult // waiting's other buffer
}

// appendResult is what a queued caller is told: its record's sequence
// number or its group's error, or that it leads the next group.
type appendResult struct {
	seq  uint64
	err  error
	lead bool
}

// resultChans recycles the one-slot channels queued callers wait on.
// Each queued append gets exactly one send — its result, or the lead —
// so a send under qmu never blocks.
var resultChans = sync.Pool{New: func() any { return make(chan appendResult, 1) }}

// crc32Scratch carries the table and an 8-byte sequence buffer for
// checksumming. The buffer lives in the struct rather than on sum's
// stack because crc32.Update's assembly kernels make their arguments
// escape — a stack array there would cost one heap allocation per
// appended record. Not safe for concurrent use; the WAL calls sum
// under its mutex and replay is serial.
type crc32Scratch struct {
	tab *crc32.Table
	sb  [8]byte
}

func newCRC() *crc32Scratch { return &crc32Scratch{tab: crc32.IEEETable} }

func (c *crc32Scratch) sum(seq uint64, payload []byte) uint32 {
	binary.LittleEndian.PutUint64(c.sb[:], seq)
	s := crc32.Update(0, c.tab, c.sb[:])
	return crc32.Update(s, c.tab, payload)
}

// OpenWAL opens the log in dir for appending, creating the directory if
// needed. It scans the newest segment to find the last sequence number,
// truncating a torn final record (replay decides separately, and
// strictly by default, whether a torn tail fails recovery; by the time
// the log is reopened for appending the caller has accepted the state).
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opts: opts, last: opts.MinSeq, crc: newCRC()}
	seqs, err := listSeqs(dir, walSegPrefix, walSegSuffix)
	if err != nil {
		return nil, err
	}
	// A newest segment shorter than its header is the artifact of a
	// crash during rotation (created, header not yet written): it holds
	// no records, so remove it and fall back to the segment before it.
	if n := len(seqs); n > 0 {
		path := segPath(dir, seqs[n-1])
		if fi, err := os.Stat(path); err == nil && fi.Size() < headerLen {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("persist: removing header-less segment %s: %w", path, err)
			}
			if first := seqs[n-1]; first > 0 && first-1 > w.last {
				w.last = first - 1 // the name still pins the sequence floor
			}
			seqs = seqs[:n-1]
		}
	}
	if len(seqs) == 0 {
		return w, nil
	}
	first := seqs[len(seqs)-1]
	path := segPath(dir, first)
	sc, err := scanSegment(path, first)
	if err != nil {
		return nil, err
	}
	if sc.torn {
		if err := os.Truncate(path, sc.goodSize); err != nil {
			return nil, fmt.Errorf("persist: truncating torn tail of %s: %w", path, err)
		}
	}
	if sc.last > w.last {
		w.last = sc.last
	} else if sc.records == 0 && first > 0 && first-1 > w.last {
		// An empty segment names the next sequence it will hold.
		w.last = first - 1
	}
	if sc.goodSize < opts.SegmentBytes {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			return nil, err
		}
		w.f, w.size = f, sc.goodSize
	}
	return w, nil
}

// LastSeq returns the last assigned sequence number (0 before any
// append on a fresh log).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// AppendedBytes returns the bytes this WAL has written to segment files
// since it was opened: record headers, payloads and segment headers.
func (w *WAL) AppendedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wrote
}

// Append assigns the next sequence number to one record — its payload
// is the given parts back to back — and returns once the record is
// written, rotating segments at the size threshold. The parts are
// copied before Append returns. With Fsync the segment is synced before
// Append returns; without it the record still survives process death
// (it is in the page cache), just not power loss.
//
// Concurrent appends group-commit themselves. A caller that finds no
// writer at work writes its own record at once; callers that arrive
// while a write is in flight queue their records, which touch no file
// until the next group is written. When a writer is done it wakes every
// caller of its group and hands the writer role to the first caller
// still queued, which writes everything queued by then in one write
// call and at most one sync. A failed write fails every caller in its
// group and consumes no sequence numbers.
func (w *WAL) Append(parts ...[]byte) (uint64, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > MaxRecordLen {
		return 0, fmt.Errorf("persist: record of %d bytes exceeds limit %d", n, MaxRecordLen)
	}
	w.qmu.Lock()
	at := len(w.next)
	w.next = append(w.next, zeroRecordHeader[:]...)
	binary.LittleEndian.PutUint32(w.next[at:], uint32(n))
	for _, p := range parts {
		w.next = append(w.next, p...)
	}
	if w.writing {
		c := resultChans.Get().(chan appendResult)
		w.waiting = append(w.waiting, c)
		w.qmu.Unlock()
		r := <-c
		resultChans.Put(c)
		if !r.lead {
			return r.seq, r.err
		}
		w.qmu.Lock()
	}
	w.writing = true
	b, waiting := w.next, w.waiting
	w.next, w.waiting = w.spare[:0], w.spareW[:0]
	w.qmu.Unlock()

	first, err := w.write(b)

	w.qmu.Lock()
	for i, c := range waiting {
		r := appendResult{err: err}
		if err == nil {
			r.seq = first + 1 + uint64(i)
		}
		c <- r
	}
	w.spare, w.spareW = b[:0], waiting[:0]
	w.handOffLocked()
	w.qmu.Unlock()
	if err != nil {
		return 0, err
	}
	return first, nil
}

// handOffLocked ends a writer's turn: the first caller still queued
// leads the next group, or, with nobody queued, the log goes idle.
func (w *WAL) handOffLocked() {
	if len(w.waiting) == 0 {
		w.writing = false
		return
	}
	c := w.waiting[0]
	w.waiting = w.waiting[:copy(w.waiting, w.waiting[1:])]
	c <- appendResult{lead: true}
}

// write stamps a group of queued records with consecutive sequence
// numbers and commits them in one write call (and, with Fsync, one
// sync), returning the first record's number. Only then does the log
// advance: a failed write or sync truncates the partial bytes away, so
// the sequence numbers are not consumed by records the log cannot vouch
// for.
func (w *WAL) write(b []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.readyLocked(); err != nil {
		return 0, err
	}
	first, last := w.last+1, w.last
	for at := 0; at < len(b); {
		last++
		end := at + recordHeaderLen + int(binary.LittleEndian.Uint32(b[at:]))
		binary.LittleEndian.PutUint32(b[at+4:], w.crc.sum(last, b[at+recordHeaderLen:end]))
		binary.LittleEndian.PutUint64(b[at+8:], last)
		at = end
	}
	if _, err := w.f.Write(b); err != nil {
		w.undoPartialLocked(err)
		return 0, fmt.Errorf("persist: appending records %d..%d: %w", first, last, err)
	}
	if w.opts.Fsync {
		if err := w.f.Sync(); err != nil {
			w.undoPartialLocked(err)
			return 0, fmt.Errorf("persist: syncing records %d..%d: %w", first, last, err)
		}
	}
	w.last = last
	w.size += int64(len(b))
	w.wrote += int64(len(b))
	return first, nil
}

// readyLocked makes the log ready for one write: open, not broken, with
// an active segment below the rotation threshold.
func (w *WAL) readyLocked() error {
	if w.close {
		return fmt.Errorf("persist: append to closed WAL")
	}
	if w.broken != nil {
		return fmt.Errorf("persist: WAL disabled after unrecoverable append failure: %w", w.broken)
	}
	if w.f == nil || w.size >= w.opts.SegmentBytes {
		return w.rotateLocked()
	}
	return nil
}

var zeroRecordHeader [recordHeaderLen]byte

// undoPartialLocked truncates the active segment back to the last good
// size after a failed append, so the partial record cannot poison the
// bytes later appends write after it. If even the truncate fails, the
// log is marked broken and refuses further appends — better unavailable
// than a segment that replays as corrupt.
func (w *WAL) undoPartialLocked(cause error) {
	if err := w.f.Truncate(w.size); err != nil {
		w.broken = fmt.Errorf("%w (and truncating the partial record failed: %v)", cause, err)
	}
}

// rotateLocked closes the current segment and starts the one whose
// first record will be last+1.
func (w *WAL) rotateLocked() error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	path := segPath(w.dir, w.last+1)
	// O_APPEND keeps every write at end-of-file even after
	// undoPartialLocked truncates a failed record away — without it the
	// fd offset would stay past the new EOF and the next write would
	// leave a zero-filled hole mid-segment.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	hdr := make([]byte, headerLen)
	copy(hdr, walMagic)
	hdr[headerLen-1] = walVersion
	fail := func(err error) error {
		// Remove the partially created segment: leaving it would make
		// every retry fail on O_EXCL and the next boot fail its header
		// scan.
		f.Close()
		os.Remove(path)
		return err
	}
	if _, err := f.Write(hdr); err != nil {
		return fail(err)
	}
	if w.opts.Fsync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
		syncDir(w.dir)
	}
	w.f, w.size = f, headerLen
	w.wrote += headerLen
	return nil
}

// Close closes the active segment. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.close = true
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Compact removes segments every record of which is covered by a
// snapshot at the given cursor: a segment is deletable when the next
// segment starts at or before cursor+1. The newest segment is always
// kept, so sequence numbering stays anchored on disk.
func (w *WAL) Compact(cursor uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	seqs, err := listSeqs(w.dir, walSegPrefix, walSegSuffix)
	if err != nil {
		return err
	}
	removed := false
	for i := 0; i+1 < len(seqs); i++ {
		if seqs[i+1] <= cursor+1 {
			if err := os.Remove(segPath(w.dir, seqs[i])); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		syncDir(w.dir)
	}
	return nil
}

// ReplayOptions configures ReplayWAL.
type ReplayOptions struct {
	// After skips records with sequence numbers ≤ After — pass the
	// snapshot's cursor, since the snapshot supersedes that prefix.
	After uint64
	// TolerateTornTail stops replay cleanly at a torn final record
	// instead of failing. A torn tail is what a crash mid-append leaves
	// behind; tolerating it trades the strict guarantee ("everything in
	// the log was applied") for availability after such a crash.
	TolerateTornTail bool
}

// ReplayWAL reads every record in sequence order and hands those after
// opts.After to fn. It fails with a descriptive error — never a panic —
// on checksum mismatches, version-mismatch headers, gaps in the
// sequence, and (unless tolerated) a torn final record. It returns the
// last sequence number seen and the number of records delivered to fn.
func ReplayWAL(dir string, opts ReplayOptions, fn func(seq uint64, payload []byte) error) (last uint64, n int, err error) {
	seqs, err := listSeqs(dir, walSegPrefix, walSegSuffix)
	if err != nil {
		return 0, 0, err
	}
	crc := newCRC()
	prev := uint64(0)
	for i, first := range seqs {
		path := segPath(dir, first)
		final := i == len(seqs)-1
		err := replaySegment(path, first, final, crc, func(seq uint64, payload []byte) error {
			if prev == 0 && seq > opts.After+1 {
				// The log's oldest surviving record is beyond what the
				// snapshot covers (or, with no snapshot, beyond record
				// 1): records have gone missing. Failing here is what
				// keeps a mangled data directory — a lost segment, or
				// a deleted snapshot whose compacted prefix is gone —
				// from recovering silently short.
				return fmt.Errorf("persist: %s: WAL starts at record %d but the snapshot covers only through %d: records %d..%d are missing", path, seq, opts.After, opts.After+1, seq-1)
			}
			if prev != 0 && seq != prev+1 {
				return fmt.Errorf("persist: %s: sequence gap: record %d follows %d", path, seq, prev)
			}
			prev = seq
			if seq <= opts.After {
				return nil
			}
			n++
			return fn(seq, payload)
		})
		if err != nil {
			var te *tornError
			if errors.As(err, &te) && final && opts.TolerateTornTail {
				return prev, n, nil
			}
			return prev, n, err
		}
	}
	return prev, n, nil
}

// tornError wraps ErrTornTail with position detail.
type tornError struct{ msg string }

func (e *tornError) Error() string { return e.msg }
func (e *tornError) Unwrap() error { return ErrTornTail }

// segScan is what scanning a segment reports: the last valid sequence
// number, the record count, and whether (and where) a torn tail starts.
type segScan struct {
	last     uint64
	records  int
	torn     bool
	goodSize int64
}

// scanSegment validates a segment's header and records without
// delivering payloads, distinguishing a torn tail from corruption.
func scanSegment(path string, nameSeq uint64) (segScan, error) {
	var sc segScan
	err := replaySegment(path, nameSeq, true, newCRC(), func(seq uint64, payload []byte) error {
		sc.last = seq
		sc.records++
		sc.goodSize += recordHeaderLen + int64(len(payload))
		return nil
	})
	sc.goodSize += headerLen
	if err != nil {
		var te *tornError
		if errors.As(err, &te) {
			sc.torn = true
			return sc, nil
		}
		return sc, err
	}
	return sc, nil
}

// replaySegment reads one segment file, validating the header and every
// record. A record that runs past end-of-file or fails its checksum
// with no bytes following is reported as a tornError when the segment
// is the final one; anything else is corruption.
func replaySegment(path string, nameSeq uint64, final bool, crc *crc32Scratch, fn func(seq uint64, payload []byte) error) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) < headerLen {
		// A final segment cut off inside its 8-byte header is the
		// artifact of a crash between segment creation and the header
		// write. No record can precede a header, so nothing is lost:
		// skip it. Anywhere else a short header is corruption.
		if final {
			return nil
		}
		return fmt.Errorf("persist: %s: short segment header (%d bytes)", path, len(b))
	}
	if string(b[:headerLen-1]) != walMagic[:headerLen-1] {
		return fmt.Errorf("persist: %s: not a WAL segment (bad magic)", path)
	}
	if v := b[headerLen-1]; v != walVersion {
		return fmt.Errorf("persist: %s: unsupported WAL version %d (this build reads version %d)", path, v, walVersion)
	}
	off := int64(headerLen)
	rest := b[headerLen:]
	firstRecord := true
	for len(rest) > 0 {
		if len(rest) < recordHeaderLen {
			return tornOrCorrupt(path, off, final, true, "truncated record header")
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		seq := binary.LittleEndian.Uint64(rest[8:16])
		if plen > MaxRecordLen {
			return fmt.Errorf("persist: %s: record at offset %d declares %d bytes, over the %d limit", path, off, plen, MaxRecordLen)
		}
		end := recordHeaderLen + int(plen)
		if len(rest) < end {
			return tornOrCorrupt(path, off, final, true, "record runs past end of segment")
		}
		payload := rest[recordHeaderLen:end]
		if crc.sum(seq, payload) != sum {
			// A bad checksum on the very last record of the final
			// segment is the torn-tail signature (partial overwrite);
			// anywhere else it is corruption.
			return tornOrCorrupt(path, off, final, len(rest) == end, "checksum mismatch")
		}
		if firstRecord {
			if seq != nameSeq {
				return fmt.Errorf("persist: %s: first record has sequence %d, segment name says %d", path, seq, nameSeq)
			}
			firstRecord = false
		}
		if err := fn(seq, payload); err != nil {
			return err
		}
		rest = rest[end:]
		off += int64(end)
	}
	return nil
}

// tornOrCorrupt builds the right error for a bad record: a tornError
// when it is at the tail of the final segment, corruption otherwise.
func tornOrCorrupt(path string, off int64, finalSegment, atTail bool, why string) error {
	if finalSegment && atTail {
		return &tornError{msg: fmt.Sprintf("persist: %s: torn final WAL record at offset %d (%s): crash artifact — truncate to recover", path, off, why)}
	}
	return fmt.Errorf("persist: %s: corrupt record at offset %d: %s", path, off, why)
}
