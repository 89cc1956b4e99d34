package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
)

// This file is the ingest half of the wire: bytes → validated compact
// records → counters. A served report never becomes a Msg: the frame
// loop decodes a frame straight into Recs with every field checked
// against the mode's Ingest contract while it is still in a register,
// and everything downstream — the server's states, stores and sessions,
// the gateway — takes records plus the bytes that encoded them. The
// general scalar decoder (decodeScalarInto) reads the same ingest layout
// in one case — user, item or bucket, order, index and bit, seed — for
// the messages the kernel passes on, and Ingest.Explain is the one
// refusal builder. Msg remains the view of scalar reads, control frames
// and the encode side; its ingest half — Decoder.Next / NextBatch — stays
// only for tests and the benchmark ladder, which also reaches a store
// through internal/transport/benchcompat.go.

// Rec is one validated ingest message. A record only exists once its
// message passed the contract it was decoded under, so whoever holds one
// applies it without looking at it again.
type Rec struct {
	User  int
	Item  uint32 // item or bucket row; 0 under the Boolean mode
	J     uint32 // report only
	Order uint8
	Bit   int8 // ±1 on a report, 0 on a hello
	// Len is the message's wire length (at most MaxMsgLen), so a
	// frame's bytes split by record without an offset table. Every record
	// of a decoded frame has one, the kernel's and the general decoder's
	// alike; it is 0 only on a record Check converted from a Msg.
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

// FrameSet is a set of scalar message types: the data form of "which
// frames does this mode read", so the frame loop classifies a message
// with one inlined mask test instead of a call.
type FrameSet uint32

func frameSet(ts ...MsgType) FrameSet {
	var s FrameSet
	for _, t := range ts {
		s |= 1 << t
	}
	return s
}

// Has reports whether t is in the set.
func (s FrameSet) Has(t MsgType) bool { return t < 32 && s>>t&1 != 0 }

// ControlFrames are the membership control plane's frames, which a
// member backend reads beside its mode's: per-shard sums requests, views
// and shard transfers.
const ControlFrames FrameSet = 1<<MsgShardSums | 1<<MsgView | 1<<MsgShardTransfer

// run is the fused decode-and-validate kernel: it reads the ingest
// messages of win from offset at into recs, one record each, checking
// every field against the contract while it is still in a register and
// before narrowing it, and returns the offset behind the last message
// it took and how many it took. It loads the contract once per call and
// stops — never failing — when recs is full, when fewer than MaxMsgLen
// bytes stand behind at (so no field can run off the window), or at the
// first message it does not accept as is: a read, a malformed or
// out-of-range message, a varint longer than three bytes. The general
// decoder then reads that one message again and either accepts it or
// builds the error, and the caller resumes the kernel behind it.
// Whatever run accepts, decodeScalarInto followed by Check accepts with
// the same record.
func (c *Ingest) run(win []byte, at int, recs []Rec) (int, int) {
	rows, logD, d := uint64(c.Rows), uint(c.LogD), uint64(c.D)
	hello, report := c.Hello, c.Report
	n := 0
loop:
	for ; n < len(recs) && len(win)-at >= MaxMsgLen; n++ {
		b := win[at : at+MaxMsgLen]
		typ := MsgType(b[0])
		user, off := uint64(b[1]), 2
		if user >= 0x80 {
			if user, off = uvarint23(b, 1); off == 0 {
				break loop
			}
		}
		var item uint64
		if rows != 0 {
			item = uint64(b[off])
			off++
			if item >= 0x80 {
				if item, off = uvarint23(b, off-1); off == 0 {
					break loop
				}
			}
			if item >= rows {
				break loop
			}
		}
		// Orders are at most 63: one byte, or the general path's business.
		order := uint(b[off])
		off++
		if order > logD {
			break loop
		}
		var j uint64
		var bit int8
		switch typ {
		case report:
			j = uint64(b[off])
			off++
			if j >= 0x80 {
				if j, off = uvarint23(b, off-1); off == 0 {
					break loop
				}
			}
			if j-1 >= d>>order || b[off] > 1 {
				break loop
			}
			bit = int8(b[off])<<1 - 1
			off++
		case hello:
			if typ == MsgHashedDomainHello {
				seed, k := binary.Uvarint(b[off:])
				if k <= 0 || seed != c.Seed {
					break loop
				}
				off += k
			}
		default:
			break loop
		}
		// One store per field, straight into the slot. Assigning a
		// composite literal through r instead makes the compiler build
		// the record on the stack with narrow stores and copy it out with
		// wide loads, which cannot be forwarded from those pending stores:
		// a stall on every message, about half the kernel's time.
		r := &recs[n]
		r.User = int(user)
		r.Item = uint32(item)
		r.J = uint32(j)
		r.Order = uint8(order)
		r.Bit = bit
		r.Len = uint8(off)
		at += off
	}
	return at, n
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

// Check is the contract applied to a decoded Msg — the adapter for
// messages that did not come through the kernel (the benchmark ladder's
// SendBatch, a frame's tail, an odd spelling): it reports whether m is
// an ingest message of the mode with every field in range, and fills r
// if so. It is the one ingest validation; Explain builds the error for a
// message it refuses.
func (c *Ingest) Check(m *Msg, r *Rec) bool {
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

// Explain is the cold half of Check and the one ingest refusal
// builder: nil exactly when Check accepts m, otherwise the error that
// names the first field out of range, in the order user, item or
// bucket, bit, order, index, seed.
func (c *Ingest) Explain(m *Msg) error {
	report, kind, row, who := m.Type == c.Report, "hello", "item", "domain "
	if report {
		kind = "report"
	}
	switch c.Hello {
	case MsgHello:
		who = ""
	case MsgHashedDomainHello:
		row, who = "bucket", "hashed domain "
	}
	switch {
	case m.Type != c.Hello && m.Type != c.Report:
		return fmt.Errorf("transport: %scollector cannot ingest message type %d", who, m.Type)
	case m.User < 0:
		return fmt.Errorf("transport: negative user id %d", m.User)
	case c.Rows != 0 && uint(m.Item) >= uint(c.Rows):
		return fmt.Errorf("transport: %s %s %d out of range [0..%d)", kind, row, m.Item, c.Rows)
	case report && m.Bit != 1 && m.Bit != -1:
		return fmt.Errorf("transport: report bit %d not ±1", m.Bit)
	case uint(m.Order) > uint(c.LogD):
		return fmt.Errorf("transport: %s order %d out of range [0..%d]", kind, m.Order, c.LogD)
	case report && uint(m.J-1) >= uint(c.D>>uint(m.Order)):
		return fmt.Errorf("transport: report index %d out of range for order %d", m.J, m.Order)
	case m.Type == MsgHashedDomainHello && m.Seed != c.Seed:
		return fmt.Errorf("transport: hello hash seed %d does not match the server's epoch seed", m.Seed)
	}
	return nil
}

// BoolIngest is the Boolean protocol's ingest contract at horizon d:
// hellos and reports, with v2 queries and raw-sums requests as its
// reads.
func BoolIngest(d int) Ingest {
	return newIngest(MsgHello, MsgReport, d, 0, 0, frameSet(MsgQueryV2, MsgSums))
}

// DomainIngest is the ingest contract of domain-valued tracking at
// horizon d under enc: the encoding's hello — a hashed one carries the
// epoch seed — and the row-tagged report both encodings share, with item
// queries and the encoding's raw-sums request as its reads.
func DomainIngest(d int, enc hh.DomainEncoding) Ingest {
	hello, sums := MsgDomainHello, MsgDomainSums
	if enc.Hashed() {
		hello, sums = MsgHashedDomainHello, MsgHashedDomainSums
	}
	return newIngest(hello, MsgDomainReport, d, enc.Rows(), enc.Seed, frameSet(MsgDomainQuery, sums))
}

// newIngest builds a contract. Records narrow the item and the interval
// index to 32 bits, which every horizon and row count an accumulator can
// be allocated for fits with room to spare.
func newIngest(hello, report MsgType, d, rows int, seed uint64, reads FrameSet) Ingest {
	if d > math.MaxInt32 || rows > math.MaxInt32 {
		panic("transport: horizon or row count beyond 32 bits")
	}
	return Ingest{Hello: hello, Report: report, Rows: rows, D: d, LogD: dyadic.Log2(d), Seed: seed, Reads: reads}
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
