package transport

import (
	"encoding/binary"
	"math"

	"rtf/internal/dyadic"
)

// This file is the ingest half of the wire: bytes → validated compact
// records → counters. A served report never becomes a Msg: the frame
// loop decodes a frame straight into Recs with every field checked
// against the mode's Ingest contract while it is still in a register,
// and everything downstream — states, stores, sessions, the gateway —
// takes records plus the bytes that encoded them. Msg remains the view
// of scalar reads, control frames, the encode side and mode-less callers
// (NextBatch).

// Rec is one validated ingest message. A record only exists once its
// message passed the contract it was decoded under, so whoever holds one
// applies it without looking at it again.
type Rec struct {
	User  int
	Item  uint32 // item or bucket row; 0 under the Boolean mode
	J     uint32 // report only
	Order uint8
	Bit   int8 // ±1 on a report, 0 on a hello
	// Len is the message's wire length (at most maxScalarWire), so a
	// frame's bytes split by record without an offset table. It is 0 on a
	// record converted from a Msg.
	Len uint8
}

// Ingest is a mode's ingest contract as data, the way Reads is the data
// form of its read set: which two message types it ingests and what
// their fields may hold. One loop (Decoder.NextFrame) serves all three
// modes from it.
type Ingest struct {
	Hello, Report MsgType
	// Rows bounds the item or bucket: 0 for the Boolean mode (no item
	// field on the wire), m for exact, g for hashed.
	Rows    int
	D, LogD int
	// Seed is the epoch hash seed a hashed hello must carry.
	Seed uint64
	// Reads are the frame types NextFrame hands back as reads instead of
	// refusing: the mode's, plus the control plane's on a membership
	// backend.
	Reads FrameSet
}

// decode is the fused decode-and-validate kernel: it reads the ingest
// message at the front of b — which must hold at least maxScalarWire
// bytes, so no field can run off its end — into r, checking each field
// against the contract before narrowing it. It returns the message's
// length, or 0 for anything it does not accept as is (a read, a
// malformed or out-of-range message, a varint longer than three bytes):
// the general decoder then reads those bytes again and either accepts
// them or builds the error. Whatever decode accepts, decodeScalarInto
// followed by check accepts with the same record.
func (c *Ingest) decode(b []byte, r *Rec) int {
	b = b[:maxScalarWire]
	typ := MsgType(b[0])
	user, off := uint64(b[1]), 2
	if user >= 0x80 {
		if user, off = uvarint23(b, 1); off == 0 {
			return 0
		}
	}
	var item uint64
	if c.Rows != 0 {
		item = uint64(b[off])
		off++
		if item >= 0x80 {
			if item, off = uvarint23(b, off-1); off == 0 {
				return 0
			}
		}
		if item >= uint64(c.Rows) {
			return 0
		}
	}
	// Orders are at most 63: one byte, or the general path's business.
	order := uint(b[off])
	off++
	if order > uint(c.LogD) {
		return 0
	}
	var j uint64
	var bit int8
	switch typ {
	case c.Report:
		j = uint64(b[off])
		off++
		if j >= 0x80 {
			if j, off = uvarint23(b, off-1); off == 0 {
				return 0
			}
		}
		if j-1 >= uint64(c.D)>>order || b[off] > 1 {
			return 0
		}
		bit = int8(b[off])<<1 - 1
		off++
	case c.Hello:
		if typ == MsgHashedDomainHello {
			seed, n := binary.Uvarint(b[off:])
			if n <= 0 || seed != c.Seed {
				return 0
			}
			off += n
		}
	default:
		return 0
	}
	*r = Rec{User: int(user), Item: uint32(item), J: uint32(j), Order: uint8(order), Bit: bit, Len: uint8(off)}
	return off
}

// uvarint23 decodes the two- or three-byte uvarint at b[at:] (its first
// byte is known to carry the continuation bit) and returns the value and
// the offset behind it, or offset 0 for a longer one.
func uvarint23(b []byte, at int) (uint64, int) {
	b1 := uint64(b[at+1])
	if b1 < 0x80 {
		return uint64(b[at]&0x7f) | b1<<7, at + 2
	}
	if b2 := uint64(b[at+2]); b2 < 0x80 {
		return uint64(b[at]&0x7f) | (b1&0x7f)<<7 | b2<<14, at + 3
	}
	return 0, 0
}

// check is the contract applied to a decoded Msg — the adapter for
// messages that did not come through the kernel (SendBatch, a frame's
// tail, an odd spelling): it reports whether m is an ingest message of
// the mode with every field in range, and fills r if so. It is the one
// ingest validation; explain builds the error for a message it refuses.
func (c *Ingest) check(m *Msg, r *Rec) bool {
	report := m.Type == c.Report
	if !report && m.Type != c.Hello {
		return false
	}
	if m.User < 0 || uint(m.Order) > uint(c.LogD) || (c.Rows != 0 && uint(m.Item) >= uint(c.Rows)) {
		return false
	}
	*r = Rec{User: m.User, Order: uint8(m.Order)}
	if c.Rows != 0 {
		r.Item = uint32(m.Item)
	}
	if !report {
		return m.Type != MsgHashedDomainHello || m.Seed == c.Seed
	}
	r.J, r.Bit = uint32(m.J), m.Bit
	return (m.Bit == 1 || m.Bit == -1) && uint(m.J-1) < uint(c.D)>>uint(m.Order)
}

// explain is the cold half of check: the error a message that failed it
// is refused with.
func (c *Ingest) explain(m *Msg) error {
	switch c.Hello {
	case MsgHello:
		return validateIngest(c.D, c.LogD, m)
	case MsgDomainHello:
		return validateDomainIngest(c.D, c.Rows, c.LogD, m)
	}
	return validateHashedDomainIngest(c.D, c.Rows, c.Seed, c.LogD, m)
}

// newIngest builds a contract. Records narrow the item and the interval
// index to 32 bits, which every horizon and row count an accumulator can
// be allocated for fits with room to spare.
func newIngest(hello, report MsgType, p dims, seed uint64, reads FrameSet) Ingest {
	if p.d > math.MaxInt32 || p.m > math.MaxInt32 {
		panic("transport: horizon or row count beyond 32 bits")
	}
	return Ingest{Hello: hello, Report: report, Rows: p.m, D: p.d, LogD: dyadic.Log2(p.d), Seed: seed, Reads: reads}
}

// Frame is one decoded frame in ingest form: its records in stream
// order, the bytes that encoded them, and — rare outside legacy mixed
// batches — the read frames that sat between them. A scalar frame is the
// one-message case. It is valid until the next Decoder call.
type Frame struct {
	Recs []Rec
	// Wire holds the frame's scalar encodings back to back exactly as
	// they arrived, a batch header excluded: Recs[i].Len bytes per record,
	// a read's bytes where it sat. Prefixed with a batch header counting a
	// run's records, the run's stretch of Wire is a frame that decodes to
	// that run, which is what lets a durable store journal it and a
	// gateway forward it without re-encoding.
	Wire  []byte
	Reads []FrameRead
	// Acked reports that the frame was a MsgBatchAcked: the peer is owed
	// exactly one BatchAck for it.
	Acked bool
}

// FrameRead is a read frame (or a control frame's marker) and its
// position: At records precede it, and Wire[Off:End] encoded it.
type FrameRead struct {
	At, Off, End int
	Msg          Msg
}

// BatchRuns walks a frame in stream order: each maximal run of records
// goes to ingest whole with the bytes that encoded it, and each read
// goes to read between them. The frame loop has validated everything by
// the time it walks, which is the atomic-batch discipline: a malformed
// message anywhere aborts the frame before anything applies.
func BatchRuns(f *Frame, ingest func(run []Rec, wire []byte) error, read func(Msg) error) error {
	at, off := 0, 0
	for i := range f.Reads {
		rd := &f.Reads[i]
		if rd.At > at {
			if err := ingest(f.Recs[at:rd.At], f.Wire[off:rd.Off]); err != nil {
				return err
			}
		}
		at, off = rd.At, rd.End
		if err := read(rd.Msg); err != nil {
			return err
		}
	}
	if at < len(f.Recs) {
		return ingest(f.Recs[at:], f.Wire[off:])
	}
	return nil
}
