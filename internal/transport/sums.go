package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"rtf/internal/dyadic"
	"rtf/internal/protocol"
)

// This file carries raw accumulator state between cluster nodes: a
// MsgSums request (a scalar message, see transport.go) is answered with
// one SumsFrame holding the server's live per-interval bit sums and
// user counts. The cluster gateway scatters the request to every
// backend and folds the responses into a fresh protocol.Server with
// MergeInto; because the estimator is a fixed linear function of these
// integers, the merged server answers every query shape bit-for-bit
// like a single serial server fed all the backends' reports — which
// merging scaled float answers would not (float addition is not
// associative).

// MaxSumsD bounds the horizon a sums frame may declare, so a corrupt or
// adversarial frame cannot force a huge allocation on decode (the frame
// carries 2d−1 interval sums).
const MaxSumsD = 1 << 20

// SumsFrame is the raw accumulator state of one backend: the horizon
// and estimator scale it was accumulated under (checked on merge, so
// mismatched backends are rejected rather than silently mixed), the
// registered-user count, the per-order user counts, and the
// per-interval ±1 bit sums in flat dyadic-tree order.
type SumsFrame struct {
	D        int
	Scale    float64
	Users    int64
	PerOrder []int64
	Sums     []int64
}

// SumsFromSharded folds the live accumulator into a frame. Counters are
// loaded atomically; fence ingestion first (a query round-trip on the
// same connection) when a consistent cut matters.
func SumsFromSharded(acc *protocol.Sharded) SumsFrame {
	users, perOrder, sums := acc.Fold()
	return SumsFrame{D: acc.D(), Scale: acc.Scale(), Users: users, PerOrder: perOrder, Sums: sums}
}

// MergeInto folds the frame's raw state into a dyadic accumulator — a
// serial protocol.Server or a protocol.Sharded — which must have the
// frame's horizon and scale.
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
	return acc.MergeRaw(f.Users, f.PerOrder, f.Sums)
}

// EncodeSums writes one MsgSumsFrame response.
func (e *Encoder) EncodeSums(f SumsFrame) error {
	if !dyadic.IsPow2(f.D) || f.D > MaxSumsD {
		return fmt.Errorf("transport: sums frame horizon %d invalid (power of two, at most %d)", f.D, MaxSumsD)
	}
	if f.Users < 0 {
		return fmt.Errorf("transport: sums frame with negative user count %d", f.Users)
	}
	if len(f.PerOrder) != dyadic.NumOrders(f.D) {
		return fmt.Errorf("transport: sums frame has %d per-order counts, want %d", len(f.PerOrder), dyadic.NumOrders(f.D))
	}
	if len(f.Sums) != dyadic.TotalIntervals(f.D) {
		return fmt.Errorf("transport: sums frame has %d interval sums, want %d", len(f.Sums), dyadic.TotalIntervals(f.D))
	}
	b := e.scratch[:0]
	b = append(b, byte(MsgSumsFrame), queryWireVersion)
	b = binary.AppendUvarint(b, uint64(f.D))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Scale))
	b = binary.AppendVarint(b, f.Users)
	for _, v := range f.PerOrder {
		b = binary.AppendVarint(b, v)
	}
	for _, v := range f.Sums {
		b = binary.AppendVarint(b, v)
	}
	e.scratch = b[:0] // keep the grown buffer for the next frame
	n, err := e.w.Write(b)
	e.n += int64(n)
	return err
}

// ReadSums decodes one MsgSumsFrame. It must be called when a sums
// frame is the next frame on the stream — after sending a MsgSums
// request — and fails on any other frame type. The declared horizon is
// validated (power of two, bounded by MaxSumsD) before either array is
// allocated, and the array lengths are fully determined by it, so a
// corrupt length cannot force a huge allocation.
func (d *Decoder) ReadSums() (SumsFrame, error) {
	if d.next < len(d.pending) {
		return SumsFrame{}, errors.New("transport: sums frame inside batch")
	}
	tb, err := d.r.ReadByte()
	if err != nil {
		return SumsFrame{}, err // io.EOF passes through
	}
	if MsgType(tb) != MsgSumsFrame {
		return SumsFrame{}, fmt.Errorf("transport: expected sums frame, got message type %d", tb)
	}
	ver, err := d.r.ReadByte()
	if err != nil {
		return SumsFrame{}, truncated(err)
	}
	if ver != queryWireVersion {
		return SumsFrame{}, fmt.Errorf("transport: unsupported sums version %d", ver)
	}
	du, err := binary.ReadUvarint(d.r)
	if err != nil {
		return SumsFrame{}, truncated(err)
	}
	if du > MaxSumsD || !dyadic.IsPow2(int(du)) {
		return SumsFrame{}, fmt.Errorf("transport: sums frame horizon %d invalid (power of two, at most %d)", du, MaxSumsD)
	}
	f := SumsFrame{D: int(du)}
	var raw [8]byte
	if _, err := io.ReadFull(d.r, raw[:]); err != nil {
		return SumsFrame{}, truncated(err)
	}
	f.Scale = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	f.Users, err = binary.ReadVarint(d.r)
	if err != nil {
		return SumsFrame{}, truncated(err)
	}
	if f.Users < 0 {
		return SumsFrame{}, fmt.Errorf("transport: sums frame with negative user count %d", f.Users)
	}
	f.PerOrder = make([]int64, dyadic.NumOrders(f.D))
	for h := range f.PerOrder {
		v, err := binary.ReadVarint(d.r)
		if err != nil {
			return SumsFrame{}, truncated(err)
		}
		if v < 0 {
			return SumsFrame{}, fmt.Errorf("transport: sums frame with negative count %d at order %d", v, h)
		}
		f.PerOrder[h] = v
	}
	f.Sums = make([]int64, dyadic.TotalIntervals(f.D))
	for i := range f.Sums {
		v, err := binary.ReadVarint(d.r)
		if err != nil {
			return SumsFrame{}, truncated(err)
		}
		f.Sums[i] = v
	}
	return f, nil
}
