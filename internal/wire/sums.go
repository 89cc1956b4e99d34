package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/protocol"
)

// This file carries raw accumulator state between cluster nodes: a
// raw-sums request (a scalar message, see wire.go) is answered
// with one frame holding the node's live counters. The cluster gateway
// scatters the request to every backend, adds the frames up and answers
// from a state built over the total; because the estimator is a fixed
// linear function of these integers, that state answers every query
// shape bit-for-bit like a single serial server fed all the backends'
// reports — which merging scaled float answers would not (float
// addition is not associative).

// Scope is the range of periods [L..R] a raw-sums request will be
// evaluated over: a point or top-k query at t reads [1..t], a change
// query its own [L..R]. A scoped request is answered with rows of the
// header columns plus the interval sums of the range's dyadic cover
// (protocol.ScopedStride counters) — what the estimators will read —
// instead of all 2d−1; both ends derive the columns from the range, so
// two varints are all that travels. The zero Scope is every column.
type Scope struct{ L, R int }

// Covers reports whether sums gathered under s answer a read of scope o:
// s holds every column, or exactly o's.
func (s Scope) Covers(o Scope) bool { return s == Scope{} || s == o }

// Check validates a scope against horizon d.
func (s Scope) Check(d int) error {
	if s != (Scope{}) && (s.L < 1 || s.R < s.L || s.R > d) {
		return fmt.Errorf("transport: sums scope [%d..%d] invalid for d=%d", s.L, s.R, d)
	}
	return nil
}

// MaxSumsD bounds the horizon a sums frame may declare, so a corrupt or
// adversarial frame cannot force a huge allocation on decode (the frame
// carries 2d−1 interval sums per row).
const MaxSumsD = 1 << 20

// RawSums is the raw accumulator state of one node in mode-neutral
// form: the horizon, row parameter and Boolean estimator scale it was
// accumulated under (checked on merge, so mismatched backends are
// rejected rather than silently mixed), the scope its rows are
// restricted to, and one row-major counter matrix with a row of
// protocol.ScopedStride(D, L, R) counters — user count, per-order user
// counts, per-interval ±1 bit sums in flat dyadic-tree order (under a
// scope: the cover's, in cover order) — per item or bucket. The Boolean
// accumulator is the one-row case, M = 0. Counters appear on the wire in
// matrix order, so export, encode, decode, merge and fold are each one
// pass over one slice. Scale is the Boolean mechanism's; the per-item
// estimator scale is m × Scale, computed identically everywhere, so
// merged raw integers reproduce a single serial server's answers bit
// for bit.
type RawSums struct {
	D, M     int
	Scale    float64
	Scope    Scope
	Counters []int64
}

// SumsFrame is the Boolean node's RawSums: the same value under the
// name whose MergeInto takes a Boolean accumulator.
type SumsFrame RawSums

// rows is the frame's row count.
func (f RawSums) rows() int { return max(f.M, 1) }

// stride is the length of one of the frame's rows.
func (f RawSums) stride() int { return protocol.ScopedStride(f.D, f.Scope.L, f.Scope.R) }

// Row returns row x's user count, per-order counts and interval sums.
// The slices alias the frame.
func (f RawSums) Row(x int) (users int64, perOrder, sums []int64) {
	stride := f.stride()
	return protocol.SplitRaw(f.D, f.Counters[x*stride:(x+1)*stride])
}

// Equal compares two frames exactly — integer for integer. It is the
// divergence test of a quorum read.
func (f RawSums) Equal(o RawSums) bool {
	return f.D == o.D && f.M == o.M && f.Scale == o.Scale && f.Scope == o.Scope && slices.Equal(f.Counters, o.Counters)
}

// MergeInto folds the frame's raw state into a dyadic accumulator — a
// serial protocol.Server or a protocol.Sharded — which must have the
// frame's horizon and scale. Only a full frame has an accumulator's
// length; a scoped one is refused by it.
func (f SumsFrame) MergeInto(acc interface {
	D() int
	Scale() float64
	MergeRaw(users int64, perOrder, sums []int64) error
}) error {
	if f.D != acc.D() {
		return fmt.Errorf("transport: sums frame has horizon d=%d, server has d=%d", f.D, acc.D())
	}
	if f.Scale != acc.Scale() {
		return fmt.Errorf("transport: sums frame has estimator scale %v, server has %v", f.Scale, acc.Scale())
	}
	if len(f.Counters) != protocol.RawStride(f.D) {
		return fmt.Errorf("transport: sums frame has %d counters, want %d", len(f.Counters), protocol.RawStride(f.D))
	}
	return acc.MergeRaw(RawSums(f).Row(0))
}

// MergeInto folds the frame's raw per-item state into a domain server,
// which must have the frame's horizon, domain size and Boolean scale.
func (f RawSums) MergeInto(ds *hh.DomainServer) error {
	if f.D != ds.D() {
		return fmt.Errorf("transport: domain sums frame has horizon d=%d, server has d=%d", f.D, ds.D())
	}
	if f.M != ds.M() {
		return fmt.Errorf("transport: domain sums frame has m=%d items, server has m=%d", f.M, ds.M())
	}
	if f.Scale != ds.BoolScale() {
		return fmt.Errorf("transport: domain sums frame has estimator scale %v, server has %v", f.Scale, ds.BoolScale())
	}
	return ds.MergeRaw(f.Counters)
}

// checkDims validates the header of a frame of the given wire type: a
// scope inside the horizon; no row parameter on a Boolean frame, an
// (d, m) pair within the allocation bounds on a domain frame.
func (f RawSums) checkDims(typ MsgType) error {
	if !dyadic.IsPow2(f.D) || f.D > MaxSumsD {
		return fmt.Errorf("transport: sums frame horizon %d invalid (power of two, at most %d)", f.D, MaxSumsD)
	}
	if err := f.Scope.Check(f.D); err != nil {
		return err
	}
	if typ == MsgSumsFrame {
		if f.M != 0 {
			return fmt.Errorf("transport: Boolean sums frame with %d rows", f.M)
		}
		return nil
	}
	if f.M < 2 || f.M > MaxDomainM {
		return fmt.Errorf("transport: domain sums frame domain size %d outside [2..%d]", f.M, MaxDomainM)
	}
	if total := f.M * dyadic.TotalIntervals(f.D); total > MaxDomainSums {
		return fmt.Errorf("transport: domain sums frame carries %d counters, over the %d limit", total, MaxDomainSums)
	}
	return nil
}

// checkCounts rejects a negative user or per-order count in row x.
func checkCounts(d, x int, row []int64) error {
	users, perOrder, _ := protocol.SplitRaw(d, row)
	if users < 0 {
		return fmt.Errorf("transport: sums frame row %d has negative user count %d", x, users)
	}
	for h, c := range perOrder {
		if c < 0 {
			return fmt.Errorf("transport: sums frame row %d has negative count %d at order %d", x, c, h)
		}
	}
	return nil
}

// EncodeSums writes one MsgSumsFrame response.
func (e *Encoder) EncodeSums(f SumsFrame) error { return e.encodeSums(MsgSumsFrame, RawSums(f), nil) }

// EncodeDomainSums writes one MsgDomainSumsFrame response.
func (e *Encoder) EncodeDomainSums(f RawSums) error { return e.encodeSums(MsgDomainSumsFrame, f, nil) }

// EncodeDomainSumsFunc writes one MsgDomainSumsFrame under f's header
// whose row x is what fill writes into a scratch row: the bytes
// EncodeDomainSums writes for the matrix of those rows, without the
// matrix, so a server encodes straight from its live counters. It
// ignores f.Counters.
func (e *Encoder) EncodeDomainSumsFunc(f RawSums, fill func(x int, row []int64)) error {
	return e.encodeSums(MsgDomainSumsFrame, f, fill)
}

// scopedSumsVersion is the version byte of a sums request or frame that
// carries a scope. Unscoped ones keep queryWireVersion and, byte for
// byte, the encoding they had before scopes existed.
const scopedSumsVersion = 2

// encodeSums is the one sums-frame encoder: type and version bytes, the
// horizon, the row count on a domain frame, the scope under version 2,
// the scale, then every counter as a zigzag varint, row by row. The rows
// are those of f.Counters, or, given live, whatever live writes for each
// row index.
func (e *Encoder) encodeSums(typ MsgType, f RawSums, live func(x int, row []int64)) error {
	if err := f.checkDims(typ); err != nil {
		return err
	}
	stride := f.stride()
	var row []int64
	if live != nil {
		row = make([]int64, stride)
	} else if len(f.Counters) != f.rows()*stride {
		return fmt.Errorf("transport: sums frame has %d counters, header says %d rows of %d", len(f.Counters), f.rows(), stride)
	}
	b := append(e.scratch[:0], byte(typ), queryWireVersion)
	if f.Scope != (Scope{}) {
		b[1] = scopedSumsVersion
	}
	b = binary.AppendUvarint(b, uint64(f.D))
	if typ == MsgDomainSumsFrame {
		b = binary.AppendUvarint(b, uint64(f.M))
	}
	if f.Scope != (Scope{}) {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(f.Scope.L)), uint64(f.Scope.R))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Scale))
	for x := 0; x < f.rows(); x++ {
		if live != nil {
			live(x, row)
		} else {
			row = f.Counters[x*stride : (x+1)*stride]
		}
		if err := checkCounts(f.D, x, row); err != nil {
			return err
		}
		for _, v := range row {
			b = binary.AppendVarint(b, v)
		}
	}
	return e.writeScratch(b)
}

// ReadSums decodes one MsgSumsFrame. It must be called when a sums
// frame is the next frame on the stream — after sending a MsgSums
// request — and fails on any other frame type.
func (d *Decoder) ReadSums() (SumsFrame, error) {
	f, err := d.readSums(MsgSumsFrame)
	return SumsFrame(f), err
}

// ReadDomainSums decodes one MsgDomainSumsFrame, under the same
// contract as ReadSums.
func (d *Decoder) ReadDomainSums() (RawSums, error) { return d.readSums(MsgDomainSumsFrame) }

// readSums is the one sums-frame decoder. The declared horizon and row
// count are validated before the matrix is allocated, and its size is
// fully determined by them, so a corrupt header cannot force a huge
// allocation.
func (d *Decoder) readSums(typ MsgType) (RawSums, error) {
	if d.next < len(d.pending) {
		return RawSums{}, errors.New("transport: sums frame inside batch")
	}
	tb, err := d.r.ReadByte()
	if err != nil {
		return RawSums{}, err // io.EOF passes through
	}
	if MsgType(tb) != typ {
		return RawSums{}, fmt.Errorf("transport: expected sums frame (type %d), got message type %d", typ, tb)
	}
	ver, err := d.r.ReadByte()
	if err != nil {
		return RawSums{}, truncated(err)
	}
	if ver != queryWireVersion && ver != scopedSumsVersion {
		return RawSums{}, fmt.Errorf("transport: unsupported sums version %d", ver)
	}
	// d, then m on a domain frame, then the scope under version 2.
	var hdr [4]uint64
	for i := range hdr {
		if i == 1 && typ != MsgDomainSumsFrame || i >= 2 && ver != scopedSumsVersion {
			continue
		}
		if hdr[i], err = binary.ReadUvarint(d.r); err != nil {
			return RawSums{}, truncated(err)
		}
	}
	if hdr[0] > MaxSumsD || hdr[1] > MaxDomainM || hdr[2] > MaxSumsD || hdr[3] > MaxSumsD {
		return RawSums{}, fmt.Errorf("transport: sums frame dims d=%d m=%d scope=[%d..%d] out of bounds", hdr[0], hdr[1], hdr[2], hdr[3])
	}
	f := RawSums{D: int(hdr[0]), M: int(hdr[1]), Scope: Scope{int(hdr[2]), int(hdr[3])}}
	if ver == scopedSumsVersion && f.Scope == (Scope{}) {
		return RawSums{}, errors.New("transport: version-2 sums frame without a scope")
	}
	if err := f.checkDims(typ); err != nil {
		return RawSums{}, err
	}
	raw, err := d.r.Peek(8)
	if err != nil {
		return RawSums{}, truncated(err)
	}
	f.Scale = math.Float64frombits(binary.LittleEndian.Uint64(raw))
	d.r.Discard(8)
	stride := f.stride()
	f.Counters = make([]int64, f.rows()*stride)
	for x := 0; x < f.rows(); x++ {
		row := f.Counters[x*stride : (x+1)*stride]
		if err := ReadVarints(d.r, row); err != nil {
			return RawSums{}, err
		}
		if err := checkCounts(f.D, x, row); err != nil {
			return RawSums{}, err
		}
	}
	return f, nil
}

// ReadVarints decodes len(dst) zigzag varints into dst — value for
// value, and failure for failure, what len(dst) binary.ReadVarint calls
// would. It reads them in bulk out of the buffered window: one Peek and
// one Discard per window instead of an interface call per byte,
// single-byte values (nearly every counter) without any call, and
// binary.ReadVarint only for a multi-byte value that the window's end
// may cut short, which also performs the refill. It never asks the
// stream for more than the values still owed need.
func ReadVarints(r *bufio.Reader, dst []int64) error {
	for len(dst) > 0 {
		win, _ := r.Peek(r.Buffered())
		used := 0
		for len(dst) > 0 && used < len(win) {
			// The run of single-byte values at the front of the window.
			run := win[used:]
			if len(run) > len(dst) {
				run = run[:len(dst)]
			}
			n := 0
			for n < len(run) && run[n] < 0x80 {
				dst[n] = int64(run[n]>>1) ^ -int64(run[n]&1)
				n++
			}
			used, dst = used+n, dst[n:]
			if n == len(run) {
				continue
			}
			if len(win)-used < binary.MaxVarintLen64 {
				break
			}
			v, size := binary.Varint(win[used:])
			if size <= 0 {
				return errors.New("transport: varint overflows a 64-bit integer")
			}
			dst[0] = v
			used, dst = used+size, dst[1:]
		}
		r.Discard(used)
		if len(dst) > 0 {
			v, err := binary.ReadVarint(r)
			if err != nil {
				return truncated(err)
			}
			dst[0] = v
			dst = dst[1:]
		}
	}
	return nil
}
