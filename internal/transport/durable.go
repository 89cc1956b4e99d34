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
	"rtf/internal/wire"
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
// WAL cursor and compacts the log behind it. What state gets restored,
// applied and marshalled is the wrapped store's business; Durable only
// moves bytes.
type Durable struct {
	journaled
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

// OpenDurableStore recovers inner's durable state from dir — newest
// snapshot through inner's restoreState, then WAL replay past its
// cursor through inner's Apply — and returns a store that journals all
// further ingestion there. inner must be freshly constructed. A record
// is decoded like a live frame, under the mode's ingest contract (the
// log holds no reads, so none are allowed). meta must describe the
// hosting configuration, and is checked against both the mode and the
// newest snapshot, so a data directory written under different
// parameters is rejected rather than misinterpreted.
func OpenDurableStore(inner Store, dir string, meta persist.Meta, o DurableOptions) (*Durable, RecoveryStats, error) {
	var stats RecoveryStats
	in, ok := inner.(journaled)
	if !ok {
		return nil, stats, fmt.Errorf("transport: %T cannot be journaled", inner)
	}
	if err := in.Mode().CheckMeta(meta); err != nil {
		return nil, stats, err
	}
	ingest := in.Mode().Ingest()
	ingest.Reads = 0
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
		if err := in.restoreState(snap.State); err != nil {
			return nil, stats, fmt.Errorf("transport: restoring snapshot state: %w", err)
		}
		after = snap.Cursor
		stats.SnapshotCursor = snap.Cursor
	}

	last, n, err := persist.ReplayWAL(dir, persist.ReplayOptions{After: after, TolerateTornTail: o.TolerateTornTail},
		func(seq uint64, payload []byte) error {
			dec := wire.NewDecoder(bytes.NewReader(payload))
			for {
				f, err := dec.NextFrame(&ingest)
				if errors.Is(err, io.EOF) {
					return nil
				}
				if err != nil {
					return fmt.Errorf("decoding record %d: %w", seq, err)
				}
				if err := in.Apply(0, f.Recs, nil); err != nil {
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
	c := &Durable{journaled: in, wal: wal, dir: dir, meta: meta, fsync: o.Fsync}
	c.snapCursor.Store(stats.SnapshotCursor)
	c.snapUnixNano.Store(time.Now().UnixNano())
	stats.Hellos, stats.Reports, _ = in.Stats()
	return c, stats, nil
}

// OpenDurable is OpenDurableStore over a Boolean collector on acc.
func OpenDurable(acc *protocol.Sharded, dir string, meta persist.Meta, o DurableOptions) (*Durable, RecoveryStats, error) {
	return OpenDurableStore(NewShardedCollector(acc), dir, meta, o)
}

// Apply implements Store: it appends the run to the write-ahead log
// and applies it to the wrapped store — in that order, under the shared
// half of the snapshot lock, so any batch a query response can reflect
// is already durable; on a journaling error the apply never runs. The
// journal validates nothing: the record is a MsgBatch header counting
// the run followed by raw, the bytes that encoded the run as they
// arrived (Frame.Wire) — which replay reads back like a live frame, and
// which are the bytes wire.Encoder.EncodeBatch would write whenever the
// sender encoded canonically. The append copies raw before it returns
// (a queued append returns once its group has landed), so the caller's
// buffer is free again when Apply returns.
func (c *Durable) Apply(shard int, run []wire.Rec, raw []byte) error {
	if len(raw) == 0 && len(run) > 0 {
		return errors.New("transport: durable store handed a run without its wire bytes")
	}
	var hdr [1 + binary.MaxVarintLen32]byte
	head := wire.AppendBatchHeader(hdr[:0], wire.MsgBatch, len(run))

	// The shared lock is held while the append is queued or in flight,
	// so a snapshot cut (which takes it exclusively) always sees a cursor
	// covering every applied batch — grouping never lets an applied
	// batch slip past the cursor of the snapshot that should contain it.
	c.mu.RLock()
	defer c.mu.RUnlock()
	if _, err := c.wal.Append(head, raw); err != nil {
		return err
	}
	return c.journaled.Apply(shard, run, nil)
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
// snapshot's cursor. Ingestion is paused only while the counters are
// folded, not while the file is written.
func (c *Durable) Snapshot() (uint64, error) {
	c.mu.Lock()
	cursor := c.wal.LastSeq()
	state := c.marshalState()
	c.mu.Unlock()

	snap := &persist.Snapshot{Cursor: cursor, Meta: c.meta, State: state}
	if err := persist.WriteSnapshot(c.dir, snap, c.fsync); err != nil {
		return cursor, fmt.Errorf("transport: writing snapshot: %w", err)
	}
	if err := c.wal.Compact(cursor); err != nil {
		return cursor, fmt.Errorf("transport: compacting WAL: %w", err)
	}
	if err := persist.CompactSnapshots(c.dir, 2); err != nil {
		return cursor, fmt.Errorf("transport: compacting snapshots: %w", err)
	}
	c.snapCursor.Store(cursor)
	c.snapUnixNano.Store(time.Now().UnixNano())
	return cursor, nil
}

// DurabilityStats reads the store's current WAL and snapshot state
// (lock-free on the snapshot side; the WAL sequence takes the WAL's own
// short mutex).
func (c *Durable) DurabilityStats() DurabilityStats {
	last := c.wal.LastSeq()
	cur := c.snapCursor.Load()
	lag := uint64(0)
	if last > cur {
		lag = last - cur
	}
	return DurabilityStats{
		LastSeq:          last,
		SnapshotCursor:   cur,
		WALLagRecords:    lag,
		WALAppendedBytes: c.wal.AppendedBytes(),
		SnapshotAge:      time.Since(time.Unix(0, c.snapUnixNano.Load())),
	}
}

// Close closes the write-ahead log. It does not snapshot; callers that
// want a final cut call Snapshot first.
func (c *Durable) Close() error { return c.wal.Close() }
