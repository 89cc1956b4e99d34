package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rtf/internal/persist"
	"rtf/internal/protocol"
)

// DurableOptions configures OpenDurableStore and its per-mode shorthands.
type DurableOptions struct {
	// Fsync syncs every WAL write before its appends return, and
	// snapshot writes before rename. Off, a kill -9 still loses nothing
	// (records are written whole and live in the page cache); on, state
	// also survives power loss, at one fsync per WAL group: frames that
	// reach the log while a write is in flight share the next write and
	// fsync.
	Fsync bool
	// SegmentBytes overrides the WAL rotation threshold (default 4 MiB).
	SegmentBytes int64
	// TolerateTornTail lets recovery truncate a torn final WAL record
	// (the artifact of a crash mid-append) instead of failing. Off by
	// default: a torn tail then fails recovery with a descriptive error
	// so the operator decides.
	TolerateTornTail bool
}

// RecoveryStats reports what OpenDurable reconstructed at boot.
type RecoveryStats struct {
	// SnapshotCursor is the cursor of the snapshot that was restored
	// (0 when no snapshot existed).
	SnapshotCursor uint64
	// Replayed is the number of WAL records applied after the snapshot.
	Replayed int
	// Hellos and Reports count the messages applied by the WAL replay
	// (the snapshot's contribution is already folded into the counters
	// and is not re-counted here).
	Hellos, Reports int64
}

// durableJournal is the persistence machinery behind Durable: the write-ahead log, the snapshot
// directory, and the lock that orders journal+apply pairs against
// snapshot cuts. What state gets restored, applied and marshalled is
// the wrapping collector's business; the journal only moves bytes.
type durableJournal struct {
	wal   *persist.WAL
	dir   string
	meta  persist.Meta
	fsync bool

	// mu orders journal+apply pairs against snapshot cuts: ingestion
	// holds it shared around the append-then-apply sequence, snapshot
	// holds it exclusively while reading the cursor and folding the
	// counters, so a snapshot's cursor covers exactly the applied
	// prefix of the log.
	mu sync.RWMutex

	// snapCursor and snapUnixNano track the newest snapshot (cursor and
	// wall-clock write time; snapUnixNano starts at open time when no
	// snapshot exists yet) so WAL lag and snapshot age are readable
	// without taking the snapshot lock.
	snapCursor   atomic.Uint64
	snapUnixNano atomic.Int64
}

// DurabilityStats is a point-in-time reading of a durable collector's
// persistence state, exported as gauges on the metrics endpoint.
type DurabilityStats struct {
	// LastSeq is the highest WAL sequence number appended (or recovered).
	LastSeq uint64
	// SnapshotCursor is the cursor of the newest snapshot (0 if none).
	SnapshotCursor uint64
	// WALLagRecords is LastSeq − SnapshotCursor: the records a restart
	// would replay.
	WALLagRecords uint64
	// WALAppendedBytes is what the log has written since open, record
	// and segment headers included: divided by the reports ingested over
	// the same time it is the WAL's bytes per report.
	WALAppendedBytes int64
	// SnapshotAge is the time since the newest snapshot was written, or
	// since the journal was opened when no snapshot has been cut yet.
	SnapshotAge time.Duration
}

// durabilityStats reads the journal's current persistence state.
func (j *durableJournal) durabilityStats() DurabilityStats {
	last := j.wal.LastSeq()
	cur := j.snapCursor.Load()
	lag := uint64(0)
	if last > cur {
		lag = last - cur
	}
	return DurabilityStats{
		LastSeq:          last,
		SnapshotCursor:   cur,
		WALLagRecords:    lag,
		WALAppendedBytes: j.wal.AppendedBytes(),
		SnapshotAge:      time.Since(time.Unix(0, j.snapUnixNano.Load())),
	}
}

// openJournal recovers durable state from dir — newest snapshot
// through restore, then WAL replay past its cursor through replay — and
// returns a journal accepting further appends there. A record is decoded
// like a live frame, under the mode's ingest contract (the log holds no
// reads, so none are allowed). meta is checked against the snapshot's, so
// a data directory written under different parameters is rejected rather
// than misinterpreted.
func openJournal(dir string, meta persist.Meta, o DurableOptions, ingest Ingest,
	restore func(state []byte) error, replay func(run []Rec) error) (*durableJournal, RecoveryStats, error) {
	ingest.Reads = 0
	var stats RecoveryStats
	if err := persist.CleanTemp(dir); err != nil {
		return nil, stats, fmt.Errorf("transport: cleaning stale snapshot temp files: %w", err)
	}
	snap, found, err := persist.LoadLatestSnapshot(dir)
	if err != nil {
		return nil, stats, fmt.Errorf("transport: loading snapshot: %w", err)
	}
	after := uint64(0)
	if found {
		if err := snap.Meta.Check(meta); err != nil {
			return nil, stats, err
		}
		if err := restore(snap.State); err != nil {
			return nil, stats, fmt.Errorf("transport: restoring snapshot state: %w", err)
		}
		after = snap.Cursor
		stats.SnapshotCursor = snap.Cursor
	}

	last, n, err := persist.ReplayWAL(dir, persist.ReplayOptions{After: after, TolerateTornTail: o.TolerateTornTail},
		func(seq uint64, payload []byte) error {
			dec := NewDecoder(bytes.NewReader(payload))
			for {
				f, err := dec.NextFrame(&ingest)
				if errors.Is(err, io.EOF) {
					return nil
				}
				if err != nil {
					return fmt.Errorf("decoding record %d: %w", seq, err)
				}
				if err := replay(f.Recs); err != nil {
					return fmt.Errorf("applying record %d: %w", seq, err)
				}
			}
		})
	if err != nil {
		return nil, stats, fmt.Errorf("transport: WAL replay: %w", err)
	}
	stats.Replayed = n

	minSeq := after
	if last > minSeq {
		minSeq = last
	}
	wal, err := persist.OpenWAL(dir, persist.WALOptions{
		SegmentBytes: o.SegmentBytes,
		Fsync:        o.Fsync,
		MinSeq:       minSeq,
	})
	if err != nil {
		return nil, stats, fmt.Errorf("transport: opening WAL: %w", err)
	}
	j := &durableJournal{wal: wal, dir: dir, meta: meta, fsync: o.Fsync}
	j.snapCursor.Store(stats.SnapshotCursor)
	j.snapUnixNano.Store(time.Now().UnixNano())
	return j, stats, nil
}

// journal appends one run to the write-ahead log and applies it to
// inner — in that order, under the shared half of the snapshot lock, so
// any batch a query response can reflect is already durable; on a
// journaling error the apply never runs. The journal validates nothing:
// the record is a MsgBatch header counting the run followed by wire, the
// bytes that encoded the run as they arrived (Frame.Wire) — which replay
// reads back like a live frame, and which are the bytes appendBatch
// would produce whenever the sender encoded canonically. The append
// copies wire before it returns (a queued append returns once its group
// has landed), so the caller's buffer is free again when journal
// returns.
func (j *durableJournal) journal(shard int, run []Rec, wire []byte, inner Store) error {
	if len(wire) == 0 && len(run) > 0 {
		return errors.New("transport: durable store handed a run without its wire bytes")
	}
	var hdr [1 + binary.MaxVarintLen32]byte
	head := appendBatchHeader(hdr[:0], MsgBatch, len(run))

	// The shared lock is held while the append is queued or in flight,
	// so a snapshot cut (which takes it exclusively) always sees a cursor
	// covering every applied batch — grouping never lets an applied
	// batch slip past the cursor of the snapshot that should contain it.
	j.mu.RLock()
	defer j.mu.RUnlock()
	if _, err := j.wal.Append(head, wire); err != nil {
		return err
	}
	return inner.Apply(shard, run, nil)
}

// snapshot writes a durable snapshot of the state produced by marshal
// and compacts the WAL segments (and older snapshots) it supersedes. It
// returns the snapshot's cursor. Ingestion is paused only while the
// counters are folded, not while the file is written.
func (j *durableJournal) snapshot(marshal func() []byte) (uint64, error) {
	j.mu.Lock()
	cursor := j.wal.LastSeq()
	state := marshal()
	j.mu.Unlock()

	snap := &persist.Snapshot{Cursor: cursor, Meta: j.meta, State: state}
	if err := persist.WriteSnapshot(j.dir, snap, j.fsync); err != nil {
		return cursor, fmt.Errorf("transport: writing snapshot: %w", err)
	}
	if err := j.wal.Compact(cursor); err != nil {
		return cursor, fmt.Errorf("transport: compacting WAL: %w", err)
	}
	if err := persist.CompactSnapshots(j.dir, 2); err != nil {
		return cursor, fmt.Errorf("transport: compacting snapshots: %w", err)
	}
	j.snapCursor.Store(cursor)
	j.snapUnixNano.Store(time.Now().UnixNano())
	return cursor, nil
}

// journaled is what a Durable wraps: a store that can move its whole
// state in and out of a snapshot. Collector and ShardMap implement it.
type journaled interface {
	Store
	marshalState() []byte
	restoreState(state []byte) error
}

// Durable wraps a Collector or a ShardMap with the persistence
// subsystem: every run is journaled to the write-ahead log and
// only then applied, so an acknowledged frame survives a crash.
// Snapshot cuts a consistent point-in-time copy of the state with its
// WAL cursor and compacts the log behind it.
type Durable struct {
	journaled
	j *durableJournal
}

// OpenDurableStore recovers inner's durable state from dir (newest
// snapshot, then WAL replay past its cursor) and returns a store that
// journals all further ingestion there. inner must be freshly
// constructed; meta must describe the hosting configuration, and is
// checked against both the mode and the newest snapshot, so a data
// directory written under different parameters is rejected rather than
// misinterpreted.
func OpenDurableStore(inner Store, dir string, meta persist.Meta, o DurableOptions) (*Durable, RecoveryStats, error) {
	in, ok := inner.(journaled)
	if !ok {
		return nil, RecoveryStats{}, fmt.Errorf("transport: %T cannot be journaled", inner)
	}
	if err := in.Mode().CheckMeta(meta); err != nil {
		return nil, RecoveryStats{}, err
	}
	j, stats, err := openJournal(dir, meta, o, in.Mode().Ingest(), in.restoreState,
		func(run []Rec) error { return in.Apply(0, run, nil) })
	if err != nil {
		return nil, stats, err
	}
	stats.Hellos, stats.Reports, _ = in.Stats()
	return &Durable{journaled: in, j: j}, stats, nil
}

// OpenDurable is OpenDurableStore over a Boolean collector on acc.
func OpenDurable(acc *protocol.Sharded, dir string, meta persist.Meta, o DurableOptions) (*Durable, RecoveryStats, error) {
	return OpenDurableStore(NewShardedCollector(acc), dir, meta, o)
}

// SendBatch implements Store: check, convert, encode, then Apply — not
// the wrapped store's SendBatch, which would skip the journal.
func (c *Durable) SendBatch(shard int, ms []Msg) error { return sendBatch(c, shard, ms, true) }

// Apply implements Store: the run is journaled as wire, the bytes that
// encoded it, and then applied to the wrapped store. See
// durableJournal.journal.
func (c *Durable) Apply(shard int, run []Rec, wire []byte) error {
	return c.j.journal(shard, run, wire, c.journaled)
}

// InstallShard replaces one virtual shard's state (the store must wrap
// a ShardMap) and immediately cuts a snapshot: the WAL journals only
// ingest frames, so without the cut a crash after the install would
// silently roll the shard back to its pre-handoff state.
func (c *Durable) InstallShard(shard int, state []byte) error {
	sm, ok := c.journaled.(*ShardMap)
	if !ok {
		return errors.New("transport: store has no shard map")
	}
	if err := sm.InstallShard(shard, state); err != nil {
		return err
	}
	if _, err := c.Snapshot(); err != nil {
		return fmt.Errorf("transport: snapshot after installing shard %d: %w", shard, err)
	}
	return nil
}

// Snapshot writes a durable snapshot of the current state and compacts
// the WAL segments (and older snapshots) it supersedes. It returns the
// snapshot's cursor.
func (c *Durable) Snapshot() (uint64, error) { return c.j.snapshot(c.marshalState) }

// DurabilityStats reads the store's current WAL and snapshot state
// (lock-free on the snapshot side; the WAL sequence takes the WAL's own
// short mutex).
func (c *Durable) DurabilityStats() DurabilityStats { return c.j.durabilityStats() }

// Close closes the write-ahead log. It does not snapshot; callers that
// want a final cut call Snapshot first.
func (c *Durable) Close() error { return c.j.wal.Close() }
