// Package persist makes the aggregation server's state durable: a
// versioned, checksummed binary snapshot format for the dyadic
// accumulator state, plus an append-only write-ahead log (WAL) of
// ingested report frames with segment rotation and compaction.
//
// The paper's server keeps only O(polylog d) counters per protocol —
// one per dyadic interval — so full-state persistence is cheap: a
// snapshot is a few kilobytes even at d = 2²⁰. The WAL covers the gap
// between snapshots: every ingested frame is appended (and optionally
// fsynced) before it is applied, so a crash loses nothing that was
// acknowledged. Recovery loads the newest snapshot and replays the WAL
// records after its cursor; because counter ingestion is exact integer
// addition, the recovered state answers every query bit-for-bit
// identically to an uninterrupted server.
//
// WAL.Append is the one append, and concurrent appends group-commit
// themselves: a caller that finds the log idle writes its record at
// once, callers that arrive while a write is in flight queue their
// records, and the first of them then writes everything queued in one
// write call with at most one fsync — consecutive sequence numbers,
// whole-group rollback on failure. There is no window, no goroutine and
// no knob. Each caller returns only once its own record is journaled,
// so the per-append sync cost is shared under load while an
// acknowledgment keeps its exact durability meaning, and a queued
// record has touched no file, so a crash loses exactly the appends that
// had not returned. The append path allocates nothing in steady state.
//
// On-disk layout (all files live in one data directory):
//
//	wal-%016x.seg   WAL segment, named by the first sequence number it
//	                holds; rotated at a size threshold
//	snap-%016x.rtfs snapshot, named by its cursor (the last WAL
//	                sequence number it covers)
//
// A snapshot supersedes the WAL prefix up to its cursor: after a
// snapshot is durably written, segments whose records are all covered
// are deleted (compaction). Corrupt inputs — bad checksums, torn
// records, version-mismatch headers — fail recovery with a descriptive
// error, never a panic or silent partial state; ReplayOptions offers an
// explicit opt-in to truncate a torn final record (the signature a
// crash mid-append leaves behind).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// File-format constants. The trailing byte of each magic is the format
// version; decoders reject other versions instead of misparsing them.
const (
	walMagic   = "RTFWAL\x00"
	snapMagic  = "RTFSNAP"
	walVersion = 1
	// snapVersion 2 added the domain-size field to the meta block
	// (Meta.M); version-1 snapshots are refused rather than misparsed.
	snapVersion = 2
	// snapVersionHashed (3) appends the hashed-encoding fields to the
	// meta block (Meta.Encoding, Meta.G, Meta.HashSeed). Writers emit it
	// only when one of those fields is set, so every snapshot an
	// exact-encoding deployment writes stays byte-identical to version 2
	// — and readable by older builds. Decoders accept both versions and
	// refuse anything else rather than misparse it.
	snapVersionHashed = 3
	headerLen         = 8 // magic + version byte, both formats
	walSegPrefix      = "wal-"
	walSegSuffix      = ".seg"
	snapPrefix        = "snap-"
	snapSuffix        = ".rtfs"
)

// MaxRecordLen bounds a WAL record's declared payload length, so a
// corrupt length field cannot force a huge allocation.
const MaxRecordLen = 1 << 26

// MaxStateLen bounds a snapshot's declared state payload length, for
// the same reason.
const MaxStateLen = 1 << 26

// ErrTornTail reports that the final record of the final WAL segment is
// incomplete — the signature of a crash mid-append. Recovery fails on
// it by default; ReplayOptions.TolerateTornTail truncates it instead.
var ErrTornTail = errors.New("persist: torn final WAL record")

// Meta identifies the mechanism configuration a snapshot belongs to.
// Recovery refuses to restore state into a differently-configured
// server: the counters only mean what the parameters say they mean.
type Meta struct {
	Mechanism string  // registry protocol name
	D         int     // horizon (power of two)
	K         int     // per-user sparsity bound
	M         int     // domain size of the richer-domain extension (0 = Boolean)
	Eps       float64 // privacy budget
	Scale     float64 // estimator scale of Algorithm 2

	// Hashed domain encodings only (all zero for Boolean and
	// exact-encoding servers, keeping their snapshots at version 2
	// byte-for-byte). The bucket counters of a hashed snapshot only mean
	// what the encoding and epoch seed say they mean, so recovery
	// refuses a mismatch on any of them.
	Encoding string // domain encoding name ("" = exact/Boolean)
	G        int    // bucket count of a hashed encoding
	HashSeed uint64 // shared epoch hash seed of a hashed encoding
}

// Check returns a descriptive error when two metas differ.
func (m Meta) Check(want Meta) error {
	if m != want {
		return fmt.Errorf("persist: snapshot taken with mechanism=%s d=%d k=%d m=%d eps=%v scale=%v encoding=%q g=%d seed=%d, server configured with mechanism=%s d=%d k=%d m=%d eps=%v scale=%v encoding=%q g=%d seed=%d",
			m.Mechanism, m.D, m.K, m.M, m.Eps, m.Scale, m.Encoding, m.G, m.HashSeed,
			want.Mechanism, want.D, want.K, want.M, want.Eps, want.Scale, want.Encoding, want.G, want.HashSeed)
	}
	return nil
}

// metaVersion returns the snapshot format version m requires: version 2
// unless a hashed-encoding field is set, so exact and Boolean
// deployments keep writing byte-identical version-2 snapshots.
func metaVersion(m Meta) byte {
	if m.Encoding != "" || m.G != 0 || m.HashSeed != 0 {
		return snapVersionHashed
	}
	return snapVersion
}

// appendMeta appends the wire encoding of m at the given format
// version. The version-3 tail carries the hashed-encoding fields.
func appendMeta(b []byte, m Meta, version byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(m.Mechanism)))
	b = append(b, m.Mechanism...)
	b = binary.AppendUvarint(b, uint64(m.D))
	b = binary.AppendUvarint(b, uint64(m.K))
	b = binary.AppendUvarint(b, uint64(m.M))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Eps))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Scale))
	if version >= snapVersionHashed {
		b = binary.AppendUvarint(b, uint64(len(m.Encoding)))
		b = append(b, m.Encoding...)
		b = binary.AppendUvarint(b, uint64(m.G))
		b = binary.AppendUvarint(b, m.HashSeed)
	}
	return b
}

// segPath returns the path of the segment whose first record is seq.
func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", walSegPrefix, seq, walSegSuffix))
}

// snapPath returns the path of the snapshot with the given cursor.
func snapPath(dir string, cursor uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, cursor, snapSuffix))
}

// parseSeq extracts the sequence number from a segment or snapshot file
// name with the given prefix and suffix.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range []byte(name[len(prefix) : len(prefix)+16]) {
		switch {
		case c >= '0' && c <= '9':
			seq = seq<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			seq = seq<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return seq, true
}

// listSeqs returns the sorted sequence numbers of files in dir matching
// prefix/suffix. os.ReadDir already sorts by name, and the fixed-width
// hex names sort numerically.
func listSeqs(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, seq)
		}
	}
	return out, nil
}

// syncDir best-effort fsyncs a directory so renames and removals are
// durable; some platforms do not support syncing directories, so errors
// are ignored.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
