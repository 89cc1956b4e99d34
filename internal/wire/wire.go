// Package wire is the protocol's byte format, the one package that owns
// it: the scalar messages (order announcements, per-period reports,
// queries, raw-sums requests, the membership control frames), batch
// frames carrying many of them, the answer, domain answer, raw-sums,
// view and shard-transfer frames, the Encoder and Decoder that write and
// read them, and the ingest contract (ingest.go) under which a Decoder
// turns a frame straight into validated 24-byte records.
//
// A client links this package and none of the server: it imports only
// the protocol packages its frames carry (dyadic, protocol, hh,
// membership) and no network stack. internal/transport serves it — the
// modes, the frame loop, the collectors, the durable journal — and
// internal/cluster's gateways forward it. Errors keep the "transport:"
// prefix they have always had on the wire's side of a connection log.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"rtf/internal/membership"
	"rtf/internal/protocol"
)

// MsgType discriminates wire messages.
type MsgType byte

// Message types.
const (
	MsgHello     MsgType = 1 // user announces its sampled order h_u
	MsgReport    MsgType = 2 // one perturbed partial sum
	MsgBatch     MsgType = 3 // frame carrying many hello/report messages
	MsgQuery     MsgType = 4 // retired v1 point query: refused, see errV1Query
	MsgEstimate  MsgType = 5 // retired v1 point answer: refused likewise
	MsgQueryV2   MsgType = 6 // versioned query frame: kind + range
	MsgAnswer    MsgType = 7 // versioned answer frame: kind + range + values
	MsgSums      MsgType = 8 // cluster gateway asks for the raw interval sums
	MsgSumsFrame MsgType = 9 // response: raw accumulator state (SumsFrame)

	// Domain-valued tracking (the richer-domain reduction): ingest and
	// query frames tagged with the user's sampled target item.
	MsgDomainHello     MsgType = 10 // user announces its (item, order) pair
	MsgDomainReport    MsgType = 11 // one perturbed partial sum, item-tagged
	MsgDomainQuery     MsgType = 12 // versioned item-scoped query frame
	MsgDomainAnswer    MsgType = 13 // response: items and/or values (DomainAnswerFrame)
	MsgDomainSums      MsgType = 14 // gateway asks for the per-item raw sums
	MsgDomainSumsFrame MsgType = 15 // response: per-item raw state (a multi-row RawSums)

	// Overload-aware ingest: an acknowledged batch frame carries only
	// ingest messages and is answered — in order, one ack per frame —
	// with a BatchAck whose status says whether the whole batch was
	// applied or shed by the server's bounded ingest queue. A batch is
	// never half-applied: shed means not one message of it reached the
	// accumulator (or, on a durable server, the write-ahead log).
	MsgBatchAcked MsgType = 16 // batch frame requesting a per-batch ack
	MsgBatchAck   MsgType = 17 // response: 1 = applied whole, 0 = shed whole

	// Dynamic membership (epoched rendezvous partitioning): the member
	// gateway pushes cluster views to backends, fetches per-virtual-
	// shard raw sums for quorum reads, and ships shard snapshots
	// between backends on reshard. See view.go.
	MsgView            MsgType = 18 // frame: a full membership.View (epoch, K, members)
	MsgShardSums       MsgType = 19 // request: raw sums for one virtual shard
	MsgShardState      MsgType = 20 // retired shard-state export: refused, see errShardState
	MsgShardStateFrame MsgType = 21 // retired shard-state response: refused likewise
	MsgShardTransfer   MsgType = 22 // frame: install this shard state (reshard handoff)
	MsgMemberAck       MsgType = 23 // response to MsgView / MsgShardTransfer: 1 = applied

	// Hashed domain encodings (LOLOHA): the hello carries the shared
	// epoch hash seed so a server can refuse clients hashing under a
	// different item→bucket map, and the sums request carries the full
	// encoding parameters (catalogue size, bucket count, seed) so a
	// gateway and backend can only merge bucket counters they agree on.
	// Hashed reports reuse MsgDomainReport verbatim with Item = bucket —
	// the hot path is byte-identical to the exact encoding's.
	MsgHashedDomainHello MsgType = 24 // user announces (bucket, order) under a hash seed
	MsgHashedDomainSums  MsgType = 25 // gateway asks for the per-bucket raw sums
)

// QueryKind discriminates the shapes of a versioned (v2) query. The
// values are the wire encoding and mirror the public ldp query kinds.
type QueryKind byte

// Query kinds.
const (
	QueryPoint  QueryKind = 1 // â[t]             (L = t)
	QueryChange QueryKind = 2 // â[R] − â[L−1]    over [L..R]
	QuerySeries QueryKind = 3 // â[1..d]
	QueryWindow QueryKind = 4 // â[L..R], one value per period

	// Item-scoped kinds, carried in MsgDomainQuery frames only.
	QueryPointItem  QueryKind = 5 // f̂(item, t)      (L = t)
	QuerySeriesItem QueryKind = 6 // f̂(item, 1..d)
	QueryTopK       QueryKind = 7 // top K items at time t (L = t)
)

// String names the kind for error messages.
func (k QueryKind) String() string {
	switch k {
	case QueryPoint:
		return "point"
	case QueryChange:
		return "change"
	case QuerySeries:
		return "series"
	case QueryWindow:
		return "window"
	case QueryPointItem:
		return "point-item"
	case QuerySeriesItem:
		return "series-item"
	case QueryTopK:
		return "top-k"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// queryWireVersion is the current version byte of MsgQueryV2 and
// MsgAnswer frames. Decoders reject frames from a newer protocol
// revision instead of misparsing them.
const queryWireVersion = 1

// MaxBatchLen bounds the declared length of a batch frame, so a corrupt
// or adversarial length prefix cannot force a huge allocation.
const MaxBatchLen = 1 << 20

// MaxAnswerLen bounds the declared value count of an answer frame, for
// the same reason.
const MaxAnswerLen = 1 << 20

// Msg is a decoded scalar wire message. Batch frames are handled at the
// Encoder/Decoder level (EncodeBatch, NextBatch); Msg stays a flat value
// type so it can be compared and copied freely.
//
// Its layout keeps a copy to inline moves (64 bytes, where Go copies
// larger values through runtime.duffcopy), which a client pays once per
// report: the int fields come first, the narrowed ones after, and the
// byte-sized tags share the last word. The constructors saturate a value
// too large for its field instead of wrapping it, and the decoder refuses
// one (see decodeScalarInto), so a narrowed field never turns an
// out-of-range value into a valid one.
type Msg struct {
	User int
	J    int    // report only
	L, R int    // v2 and domain queries: range (point queries use L = t); sums requests: scope, 0 for every column
	Seed uint64 // hashed domain messages only: the shared epoch hash seed
	Item int32  // domain messages only: the sampled target item
	K    int32  // domain top-k query only: how many items
	// Shard is the virtual shard of a membership shard request.
	Shard int32
	// Order is the user's order. Orders never exceed 63; a constructor
	// clamps a larger one to maxOrder, which the codec refuses both ways.
	Order int16
	Type  MsgType
	Bit   int8      // report only, ±1
	Kind  QueryKind // v2 and domain queries only
}

// maxOrder is the order a constructor clamps an out-of-range one to, and
// the smallest order the encoder and the decoder refuse: a Msg order
// below it is the order it was built from.
const maxOrder = math.MaxInt16

// sat32 and sat16 narrow a constructor argument into a Msg field,
// saturating instead of wrapping.
func sat32(v int) int32 { return int32(min(max(v, math.MinInt32), math.MaxInt32)) }
func sat16(v int) int16 { return int16(min(max(v, math.MinInt16), math.MaxInt16)) }

// Hello constructs an order-announcement message.
func Hello(user, order int) Msg {
	return Msg{Type: MsgHello, User: user, Order: sat16(order)}
}

// QueryV2 constructs a versioned query frame. Point and series queries
// use l for the time (series ignores both bounds); change and window
// queries ask about the range [l..r].
func QueryV2(kind QueryKind, l, r int) Msg {
	return Msg{Type: MsgQueryV2, Kind: kind, L: l, R: r}
}

// Sums constructs a raw-sums request: the server answers with one
// SumsFrame carrying its live accumulator state. The cluster gateway
// scatters this to every backend and merges the responses.
func Sums() Msg {
	return Msg{Type: MsgSums}
}

// DomainHello constructs an (item, order) announcement for a domain
// server: the user's sampled target item and the wrapped Boolean
// client's order, both data-independent and safe in the clear.
func DomainHello(user, item, order int) Msg {
	return Msg{Type: MsgDomainHello, User: user, Item: sat32(item), Order: sat16(order)}
}

// FromDomainReport tags a protocol report with its target item for a
// domain server.
func FromDomainReport(item int, r protocol.Report) Msg {
	return Msg{Type: MsgDomainReport, User: r.User, Item: sat32(item), Order: sat16(r.Order), J: r.J, Bit: r.Bit}
}

// DomainQuery constructs a versioned item-scoped query frame.
// Point-item queries use l for the time; series-item queries ignore the
// bounds; top-k queries use l for the time and k for the item count
// (item is ignored). A k beyond 32 bits asks for the whole catalogue,
// as MaxInt32 does.
func DomainQuery(kind QueryKind, item, l, r, k int) Msg {
	return Msg{Type: MsgDomainQuery, Kind: kind, Item: sat32(item), L: l, R: r, K: sat32(k)}
}

// DomainSums constructs a per-item raw-sums request: the server answers
// with one MsgDomainSumsFrame carrying every item's live accumulator
// state. The cluster gateway scatters this to every backend and merges
// the responses.
func DomainSums() Msg {
	return Msg{Type: MsgDomainSums}
}

// HashedDomainHello constructs a (bucket, order) announcement for a
// hashed domain server. The seed is the shared epoch hash seed the
// user's client hashes items under — data-independent and safe in the
// clear — so the server can refuse a client whose item→bucket map
// differs from its own.
func HashedDomainHello(user, bucket, order int, seed uint64) Msg {
	return Msg{Type: MsgHashedDomainHello, User: user, Item: sat32(bucket), Order: sat16(order), Seed: seed}
}

// HashedDomainSums constructs a per-bucket raw-sums request carrying
// the requester's full encoding parameters: catalogue size m (in Item),
// bucket count g (in K) and the epoch hash seed. The server answers
// with one ordinary MsgDomainSumsFrame over its g bucket rows — but only
// after checking all three parameters match its own encoding, so two
// deployments hashing differently can never silently merge counters.
func HashedDomainSums(m, g int, seed uint64) Msg {
	return Msg{Type: MsgHashedDomainSums, Item: sat32(m), K: sat32(g), Seed: seed}
}

// ShardSums constructs a per-virtual-shard raw-sums request: a
// membership-mode server answers with one MsgSumsFrame (Boolean) or
// MsgDomainSumsFrame (domain) scoped to that shard's accumulator. The
// member gateway scatters these to a quorum of the shard's replicas
// and compares the exact integer counters.
func ShardSums(shard int) Msg {
	return Msg{Type: MsgShardSums, Shard: sat32(shard)}
}

// FromReport converts a protocol report to a wire message.
func FromReport(r protocol.Report) Msg {
	return Msg{Type: MsgReport, User: r.User, Order: sat16(r.Order), J: r.J, Bit: r.Bit}
}

// Report converts a decoded message back to a protocol report. It panics
// if the message is not a report.
func (m Msg) Report() protocol.Report {
	if m.Type != MsgReport {
		panic("transport: not a report message")
	}
	return protocol.Report{User: m.User, Order: int(m.Order), J: m.J, Bit: m.Bit}
}

// Encoder writes messages to a stream in the varint wire format.
// It is not safe for concurrent use.
type Encoder struct {
	w       *bufio.Writer
	scratch []byte
	n       int64
}

// NewEncoder wraps a writer.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w), scratch: make([]byte, 0, 32)}
}

// Encode writes one scalar message.
func (e *Encoder) Encode(m Msg) error {
	b, err := appendMsg(e.scratch[:0], &m)
	if err != nil {
		return err
	}
	return e.WriteFrame(b)
}

// appendMsg appends the scalar wire encoding of m to b. It takes the
// Msg by pointer: this is the inner loop of every batch encode.
func appendMsg(b []byte, m *Msg) ([]byte, error) {
	if m.Order >= maxOrder {
		return nil, fmt.Errorf("transport: order %d overflows", m.Order)
	}
	b = append(b, byte(m.Type))
	switch m.Type {
	case MsgHello:
		if m.User < 0 {
			return nil, fmt.Errorf("transport: negative user id %d", m.User)
		}
		if m.Order < 0 {
			return nil, fmt.Errorf("transport: negative order %d", m.Order)
		}
		b = binary.AppendUvarint(b, uint64(m.User))
		b = binary.AppendUvarint(b, uint64(m.Order))
	case MsgReport:
		if m.User < 0 {
			return nil, fmt.Errorf("transport: negative user id %d", m.User)
		}
		if m.Order < 0 || m.J < 0 {
			return nil, fmt.Errorf("transport: negative order %d or index %d", m.Order, m.J)
		}
		b = binary.AppendUvarint(b, uint64(m.User))
		b = binary.AppendUvarint(b, uint64(m.Order))
		b = binary.AppendUvarint(b, uint64(m.J))
		switch m.Bit {
		case 1:
			b = append(b, 1)
		case -1:
			b = append(b, 0)
		default:
			return nil, fmt.Errorf("transport: report bit %d not ±1", m.Bit)
		}
	case MsgQueryV2:
		if m.L < 0 || m.R < 0 {
			return nil, fmt.Errorf("transport: negative query bound [%d..%d]", m.L, m.R)
		}
		b = append(b, queryWireVersion, byte(m.Kind))
		b = binary.AppendUvarint(b, uint64(m.L))
		b = binary.AppendUvarint(b, uint64(m.R))
	case MsgSums, MsgDomainSums:
		return appendScope(append(b, sumsVersion(m)), m)
	case MsgDomainHello:
		if m.User < 0 {
			return nil, fmt.Errorf("transport: negative user id %d", m.User)
		}
		if m.Order < 0 {
			return nil, fmt.Errorf("transport: negative order %d", m.Order)
		}
		if m.Item < 0 {
			return nil, fmt.Errorf("transport: negative item %d", m.Item)
		}
		b = binary.AppendUvarint(b, uint64(m.User))
		b = binary.AppendUvarint(b, uint64(m.Item))
		b = binary.AppendUvarint(b, uint64(m.Order))
	case MsgDomainReport:
		if m.User < 0 {
			return nil, fmt.Errorf("transport: negative user id %d", m.User)
		}
		if m.Order < 0 || m.J < 0 {
			return nil, fmt.Errorf("transport: negative order %d or index %d", m.Order, m.J)
		}
		if m.Item < 0 {
			return nil, fmt.Errorf("transport: negative item %d", m.Item)
		}
		b = binary.AppendUvarint(b, uint64(m.User))
		b = binary.AppendUvarint(b, uint64(m.Item))
		b = binary.AppendUvarint(b, uint64(m.Order))
		b = binary.AppendUvarint(b, uint64(m.J))
		switch m.Bit {
		case 1:
			b = append(b, 1)
		case -1:
			b = append(b, 0)
		default:
			return nil, fmt.Errorf("transport: report bit %d not ±1", m.Bit)
		}
	case MsgDomainQuery:
		if m.Item < 0 || m.L < 0 || m.R < 0 || m.K < 0 {
			return nil, fmt.Errorf("transport: negative domain query field (item=%d l=%d r=%d k=%d)", m.Item, m.L, m.R, m.K)
		}
		b = append(b, queryWireVersion, byte(m.Kind))
		b = binary.AppendUvarint(b, uint64(m.Item))
		b = binary.AppendUvarint(b, uint64(m.L))
		b = binary.AppendUvarint(b, uint64(m.R))
		b = binary.AppendUvarint(b, uint64(m.K))
	case MsgHashedDomainHello:
		if m.User < 0 {
			return nil, fmt.Errorf("transport: negative user id %d", m.User)
		}
		if m.Order < 0 {
			return nil, fmt.Errorf("transport: negative order %d", m.Order)
		}
		if m.Item < 0 {
			return nil, fmt.Errorf("transport: negative bucket %d", m.Item)
		}
		b = binary.AppendUvarint(b, uint64(m.User))
		b = binary.AppendUvarint(b, uint64(m.Item))
		b = binary.AppendUvarint(b, uint64(m.Order))
		b = binary.AppendUvarint(b, m.Seed)
	case MsgHashedDomainSums:
		if m.Item < 0 || m.K < 0 {
			return nil, fmt.Errorf("transport: negative hashed-sums field (m=%d g=%d)", m.Item, m.K)
		}
		b = append(b, sumsVersion(m))
		b = binary.AppendUvarint(b, uint64(m.Item))
		b = binary.AppendUvarint(b, uint64(m.K))
		b = binary.AppendUvarint(b, m.Seed)
		return appendScope(b, m)
	case MsgShardSums:
		if m.Shard < 0 {
			return nil, fmt.Errorf("transport: negative shard %d", m.Shard)
		}
		return appendScope(binary.AppendUvarint(append(b, sumsVersion(m)), uint64(m.Shard)), m)
	default:
		return nil, fmt.Errorf("transport: unknown message type %d", m.Type)
	}
	return b, nil
}

// sumsVersion is the version byte of sums request m: an unscoped request
// (L = R = 0) keeps queryWireVersion and the bytes it always had, a
// scoped one is version 2 with the scope at its end (appendScope).
func sumsVersion(m *Msg) byte {
	if m.L == 0 && m.R == 0 {
		return queryWireVersion
	}
	return scopedSumsVersion
}

func appendScope(b []byte, m *Msg) ([]byte, error) {
	if m.L == 0 && m.R == 0 {
		return b, nil
	}
	if m.L < 1 || m.R < m.L {
		return nil, fmt.Errorf("transport: invalid sums scope [%d..%d]", m.L, m.R)
	}
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(m.L)), uint64(m.R)), nil
}

// AppendBatchHeader appends a batch frame's header: the type byte —
// MsgBatch for fire-and-forget batches, MsgBatchAcked for batches the
// server must acknowledge (applied whole or shed whole) — and a uvarint
// message count.
func AppendBatchHeader(b []byte, typ MsgType, n int) []byte {
	return binary.AppendUvarint(append(b, byte(typ)), uint64(n))
}

// AppendMsgs appends the scalar encodings of ms back to back: a batch
// frame's body. Reports and domain reports, nearly every message a
// client sends, are written in place by appendReport and
// appendDomainReport; every other message, and any report they leave,
// goes through appendMsg, which writes the same bytes or the error.
func AppendMsgs(b []byte, ms []Msg) ([]byte, error) {
	var err error
	for i := range ms {
		m := &ms[i]
		if cap(b)-len(b) < MaxMsgLen {
			// Room for the rest of the batch at a typical report's length,
			// and for the longest message: a fresh buffer grows about once
			// a batch, a reused one that held a batch this size not at all.
			b = slices.Grow(b, (len(ms)-i)*typicalMsgLen+MaxMsgLen)
		}
		n := len(b)
		switch m.Type {
		case MsgReport:
			b = appendReport(b, m)
		case MsgDomainReport:
			b = appendDomainReport(b, m)
		case MsgBatch, MsgBatchAcked:
			return nil, errors.New("transport: nested batch")
		}
		if len(b) == n {
			if b, err = appendMsg(b, m); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// typicalMsgLen is what AppendMsgs reserves per message: a report of a
// user below 2^21 with a one- or two-byte index.
const typicalMsgLen = 8

// appendReport writes the report m in place behind b, which has room for
// MaxMsgLen more bytes, and returns b grown by it — or b unchanged if m
// is anything appendMsg might refuse, has an order longer than one byte
// or a user or index of 2^21 or more. Its fields are the ones the
// ingest kernel (Ingest.run) reads, each uvarint written by
// putUvarint21, the encoding twin of uvarint23.
func appendReport(b []byte, m *Msg) []byte {
	if uint64(m.User)|uint64(m.J) >= 1<<21 || uint16(m.Order) >= 0x80 || m.Bit != 1 && m.Bit != -1 {
		return b
	}
	n := len(b)
	w := b[n : n+MaxMsgLen]
	w[0] = byte(MsgReport)
	off := putUvarint21(w, 1, uint64(m.User))
	w[off] = byte(m.Order)
	off = putUvarint21(w, off+1, uint64(m.J))
	w[off] = byte(m.Bit+1) >> 1
	return b[:n+off+1]
}

// appendDomainReport is appendReport for a domain report, whose item
// sits between the user and the order.
func appendDomainReport(b []byte, m *Msg) []byte {
	if uint64(m.User)|uint64(m.J)|uint64(m.Item) >= 1<<21 || uint16(m.Order) >= 0x80 || m.Bit != 1 && m.Bit != -1 {
		return b
	}
	n := len(b)
	w := b[n : n+MaxMsgLen]
	w[0] = byte(MsgDomainReport)
	off := putUvarint21(w, 1, uint64(m.User))
	off = putUvarint21(w, off, uint64(m.Item))
	w[off] = byte(m.Order)
	off = putUvarint21(w, off+1, uint64(m.J))
	w[off] = byte(m.Bit+1) >> 1
	return b[:n+off+1]
}

// putUvarint21 writes v < 2^21 as a one-, two- or three-byte uvarint at
// w[at:] and returns the offset behind it.
func putUvarint21(w []byte, at int, v uint64) int {
	if v < 1<<7 {
		w[at] = byte(v)
		return at + 1
	}
	if v < 1<<14 {
		w[at], w[at+1] = byte(v)|0x80, byte(v>>7)
		return at + 2
	}
	w[at], w[at+1], w[at+2] = byte(v)|0x80, byte(v>>7)|0x80, byte(v>>14)
	return at + 3
}

// appendBatch appends one batch frame carrying all the given hello and
// report messages: header, then body. A write-ahead-log record is a
// MsgBatch frame too — header, then the body bytes as they arrived (see
// internal/transport's durable journal) — so recovery replays through
// the ordinary decoder.
func appendBatch(b []byte, typ MsgType, ms []Msg) ([]byte, error) {
	if len(ms) > MaxBatchLen {
		return nil, fmt.Errorf("transport: batch of %d messages exceeds limit %d", len(ms), MaxBatchLen)
	}
	if typ == MsgBatchAcked && len(ms) == 0 {
		return nil, errors.New("transport: empty acked batch")
	}
	return AppendMsgs(AppendBatchHeader(b, typ, len(ms)), ms)
}

// EncodeBatch writes one batch frame (see appendBatch). Compared with
// per-message frames a batch costs the same bytes plus a two-to-four-
// byte header, but lets the receiver amortize dispatch over the whole
// batch.
func (e *Encoder) EncodeBatch(ms []Msg) error { return e.encodeBatch(MsgBatch, ms) }

// EncodeAckedBatch writes one acknowledged batch frame: identical to
// EncodeBatch except the server must answer it with exactly one
// MsgBatchAck saying whether the whole batch was applied or shed by its
// bounded ingest queue. Only ingest messages (hellos and reports,
// Boolean or domain) may travel in an acked batch; a server rejects
// query frames inside one. The caller must read the acks — senders that
// stream acked batches without draining acks eventually deadlock on TCP
// flow control.
func (e *Encoder) EncodeAckedBatch(ms []Msg) error { return e.encodeBatch(MsgBatchAcked, ms) }

func (e *Encoder) encodeBatch(typ MsgType, ms []Msg) error {
	b, err := appendBatch(e.scratch[:0], typ, ms)
	if err != nil {
		return err
	}
	return e.writeScratch(b)
}

// EncodeBatchAck writes the server's response to one acked batch.
func (e *Encoder) EncodeBatchAck(applied bool) error { return e.encodeAck(MsgBatchAck, applied) }

// encodeAck writes a two-byte ack frame: its type, then the status, 1
// for applied and 0 for shed or refused.
func (e *Encoder) encodeAck(typ MsgType, applied bool) error {
	status := byte(0)
	if applied {
		status = 1
	}
	return e.WriteFrame(append(e.scratch[:0], byte(typ), status))
}

// Flush flushes buffered bytes to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Buffered returns the number of encoded bytes not yet flushed.
func (e *Encoder) Buffered() int { return e.w.Buffered() }

// BytesWritten returns the total encoded payload size so far (possibly
// still buffered).
func (e *Encoder) BytesWritten() int64 { return e.n }

// Decoder reads messages from a stream. It has two views of an ingest
// frame, filled by the same window loop (readFrame): NextFrame decodes
// straight into validated records under a mode's contract — what every
// server runs — and Next / NextBatch decode
// into unvalidated Msgs for callers that have no mode, which outside
// tests is only the benchmark ladder.
type Decoder struct {
	r   *bufio.Reader
	src io.Reader // what r reads from, kept so the buffer can grow
	// carried holds what the small buffer had buffered when growBuffer
	// replaced it, until unwrap sees it consumed; nil otherwise.
	carried *bytes.Reader

	// pending holds the unread tail of the last batch frame, so Next can
	// transparently unbatch; NextBatch reuses the same backing array.
	pending []Msg
	next    int
	// f is the last frame NextFrame decoded; it reuses its backing arrays.
	// Its Acked is kept for either view.
	f Frame
	// small counts consecutive frames that left an oversized pending or
	// record buffer mostly unused, see maxRetainedBatch.
	small int

	// view and shardState hold the payloads of the most recent MsgView
	// and MsgShardTransfer frames. Both frames are variable-length, so
	// — like batch frames filling pending — they decode into Decoder
	// side-state and surface through Next as a marker Msg; the serve
	// loop retrieves the payload with TakeView / TakeShardState. Msg
	// itself stays a flat comparable value type.
	view       membership.View
	shardState []byte
}

// Read buffer sizes. A connection starts with the small one, which is
// all a stream of scalar queries ever needs; the first batch frame that
// overruns it (readFrame finds the buffer full with the frame still
// going) moves the connection to the large one for good, so a typical
// ingest frame arrives in one or two reads instead of one per 4 KiB.
// Backend connections start large: they carry raw-sums frames of tens of
// kilobytes back.
const (
	smallReadBuffer = 4 << 10
	largeReadBuffer = 64 << 10
)

// growBuffer moves the decoder to the large read buffer for good, if it
// is not there yet, keeping the bytes the small one holds: the large
// buffer reads them first, then the source.
func (d *Decoder) growBuffer() {
	if d.r.Size() < largeReadBuffer {
		rest, _ := d.r.Peek(d.r.Buffered())
		d.carried = bytes.NewReader(bytes.Clone(rest))
		d.r = bufio.NewReaderSize(io.MultiReader(d.carried, d.src), largeReadBuffer)
	}
}

// unwrap points the large buffer straight at the source once the bytes
// growBuffer carried over are consumed and nothing is buffered, so later
// refills do not pass through the wrapper (an ack read through it cost
// ≈ 20 % more, BenchmarkIngestAckRead). Every frame reader calls it
// first, between frames; it inlines to one nil check.
func (d *Decoder) unwrap() {
	if d.carried != nil {
		d.dropCarried()
	}
}

// dropCarried is unwrap's slow half, kept out of line so that unwrap
// inlines.
//
//go:noinline
func (d *Decoder) dropCarried() {
	if d.carried.Len() == 0 && d.r.Buffered() == 0 {
		d.r.Reset(d.src)
		d.carried = nil
	}
}

// NewDecoder wraps a reader.
func NewDecoder(r io.Reader) *Decoder { return newDecoderSize(r, smallReadBuffer) }

// NewBackendDecoder wraps a gateway's backend connection, which carries
// raw-sums frames back: it starts with the large read buffer.
func NewBackendDecoder(r io.Reader) *Decoder { return newDecoderSize(r, largeReadBuffer) }

func newDecoderSize(r io.Reader, size int) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, size), src: r}
}

// Next decodes one scalar message. Batch frames are unbatched
// transparently: the frame's messages are returned one per call. Next
// returns io.EOF cleanly at end of stream and io.ErrUnexpectedEOF on a
// truncated message. Empty batch frames are skipped iteratively, so a
// stream of them cannot grow the stack. Only tests and benchmarks call
// it: transport's codec tests and fuzzers, and the root package's
// BenchmarkIngestSingleMessage.
func (d *Decoder) Next() (Msg, error) {
	for d.next == len(d.pending) {
		if err := d.readFrame(nil); err != nil {
			return Msg{}, err
		}
	}
	d.next++
	return d.pending[d.next-1], nil
}

// NextBatch decodes one frame: a batch frame yields all its messages, a
// scalar frame yields a one-element slice. The returned slice is only
// valid until the next Decoder call. Any messages still pending from a
// partially Next-consumed batch are returned first. Empty batch frames
// are skipped. Nothing is range-checked: a caller that ingests what it
// returns wants NextFrame, which decodes under a contract.
func (d *Decoder) NextBatch() ([]Msg, error) {
	for d.next == len(d.pending) {
		if err := d.readFrame(nil); err != nil {
			return nil, err
		}
	}
	ms := d.pending[d.next:]
	d.next = len(d.pending)
	return ms, nil
}

// NextFrame decodes one frame under a mode's ingest contract: every
// ingest message becomes a validated record, every type in c.Reads is
// handed back as a read at its position, and anything else fails the
// frame with the error the contract's Explain gives it — before the
// caller has seen, let alone applied, any of it. Empty batch frames are
// skipped. The frame is valid until the next Decoder call.
func (d *Decoder) NextFrame(c *Ingest) (*Frame, error) {
	for {
		if err := d.readFrame(c); err != nil {
			return nil, err
		}
		if len(d.f.Recs) > 0 || len(d.f.Reads) > 0 {
			return &d.f, nil
		}
	}
}

// maxRetainedBatch is the capacity, in messages, up to which a Decoder
// keeps its pending and record buffers unconditionally. A larger one —
// one maximal batch is MaxBatchLen messages: 24 bytes of record and up to
// MaxMsgLen bytes of wire each, a Msg each for a mode-less caller —
// must not stay pinned for the connection's lifetime, but neither may it
// be dropped while the stream still fills it, or every frame of a sender
// whose batches exceed this size would reallocate it: it is released
// after smallFramesToRelease consecutive frames that each used under a
// quarter of it.
const (
	maxRetainedBatch     = 1 << 12
	smallFramesToRelease = 32
)

// readFrame decodes the next frame into d.f (under contract c) or, with
// no contract, into d.pending. A scalar frame is the one-message case of
// a batch: same loop, no header.
func (d *Decoder) readFrame(c *Ingest) error {
	// The caller has consumed the last frame; its length is what that
	// frame needed.
	if used, kept := len(d.pending)+len(d.f.Recs), max(cap(d.pending), cap(d.f.Recs)); kept > maxRetainedBatch {
		if used >= kept/4 {
			d.small = 0
		} else if d.small++; d.small == smallFramesToRelease {
			d.pending, d.f, d.small = nil, Frame{}, 0
		}
	}
	d.pending, d.next = d.pending[:0], 0
	d.f = Frame{Recs: d.f.Recs[:0], Wire: d.f.Wire[:0], Reads: d.f.Reads[:0]}
	d.unwrap()
	head, err := d.r.Peek(1)
	if err != nil {
		return err // io.EOF passes through
	}
	typ := MsgType(head[0])
	d.f.Acked = typ == MsgBatchAcked
	n := 1
	switch typ {
	case MsgView, MsgShardTransfer:
		// Variable-length frames: decode into side-state and surface a
		// marker (see TakeView, TakeShardState).
		d.r.Discard(1)
		m := Msg{Type: typ}
		if typ == MsgView {
			d.view, err = d.readViewBody()
		} else {
			m.Shard, d.shardState, err = d.readShardPayloadBody()
		}
		switch {
		case err != nil:
			return err
		case c == nil:
			d.pending = append(d.pending, m)
		case c.Reads.Has(typ):
			d.f.Reads = append(d.f.Reads, FrameRead{Msg: m})
		default:
			return c.Explain(&m)
		}
		return nil
	case MsgBatch, MsgBatchAcked:
		d.r.Discard(1)
		declared, err := binary.ReadUvarint(d.r)
		if err != nil {
			return truncated(err)
		}
		if declared > MaxBatchLen {
			return fmt.Errorf("transport: batch length %d exceeds limit %d", declared, MaxBatchLen)
		}
		if d.f.Acked && declared == 0 {
			// An empty acked batch would be skipped by the unbatching loops
			// and its ack silently owed forever; reject it at the frame level
			// (the encoder refuses to produce one).
			return errors.New("transport: empty acked batch")
		}
		n = int(declared)
	case MsgBatchAck:
		return errors.New("transport: batch ack outside ReadBatchAck")
	}
	for done := 0; done < n; {
		// Decode every message the buffered window holds whole in one
		// tight loop — one Peek and one Discard per window, not per
		// message — and go back to the source only when the window runs
		// out inside a message, for whatever one read returns: the peer
		// may be waiting for a response mid-stream.
		win, _ := d.r.Peek(d.r.Buffered())
		used, k, err := d.window(c, win, n-done, n)
		d.r.Discard(used)
		if err != nil {
			d.pending, d.f.Recs, d.f.Reads = d.pending[:0], d.f.Recs[:0], d.f.Reads[:0]
			return err
		}
		if done += k; done == n {
			break
		}
		if len(win) == d.r.Size() {
			// The frame overran a full buffer: see smallReadBuffer.
			d.growBuffer()
		}
		if _, err := d.r.Peek(d.r.Buffered() + 1); err != nil {
			return truncated(err)
		}
	}
	return nil
}

// roomFor returns s with capacity for extra more elements, growing it by
// doubling but never past limit, the length its frame declared — so what
// a frame makes the decoder hold is bounded by what it declared, and
// what it allocates by the bytes that actually arrived.
func roomFor[T any](s []T, extra, limit int) []T {
	if need := len(s) + extra; need > cap(s) {
		s = append(make([]T, 0, min(max(need, 2*cap(s)), limit)), s...)
	}
	return s
}

// window decodes up to want messages of a frame declaring limit out of
// win, the reader's buffered bytes, and returns the bytes consumed and
// the messages decoded; it stops early, without error, at a message the
// window cuts short. Without a contract the general decoder fills a Msg
// per message. With one the kernel fills records for as long as it
// accepts what it reads, and the general decoder takes only the one
// message it stops at — a read, a refusal, an odd spelling, or a
// message in the last MaxMsgLen bytes of the window, where the kernel's
// precondition fails — through the same contract, after which the
// kernel resumes.
func (d *Decoder) window(c *Ingest, win []byte, want, limit int) (used, k int, err error) {
	// Make room for every message this window could hold (each scalar is
	// at least two bytes; a lone type byte can already be refused), so
	// the loops index slots with no per-message capacity check.
	want = min(want, (len(win)+1)/2)
	if c == nil {
		base := len(d.pending)
		d.pending = roomFor(d.pending, want, limit)
		msgs := d.pending[base : base+want]
		// decodeScalarInto writes only the fields it decodes: one
		// vectorized clear of the reused slots instead of a struct zero
		// per message.
		clear(msgs)
		for ; k < want; k++ {
			var n int
			if n, err = decodeScalarInto(win[used:], &msgs[k]); err != nil {
				break
			}
			used += n
		}
		d.pending = d.pending[:base+k]
	} else {
		nr := len(d.f.Recs)
		recs := roomFor(d.f.Recs, want, limit)[:nr+want]
		for k < want {
			var n int
			used, n = c.run(win, used, recs[nr:nr+want-k])
			if nr, k = nr+n, k+n; k == want {
				break
			}
			var m Msg
			if n, err = decodeScalarInto(win[used:], &m); err != nil {
				break
			}
			if c.Reads.Has(m.Type) {
				off := len(d.f.Wire) + used
				d.f.Reads = append(d.f.Reads, FrameRead{At: nr, Off: off, End: off + n, Msg: m})
			} else if !c.Check(&m, &recs[nr]) {
				err = c.Explain(&m)
				break
			} else {
				recs[nr].Len = uint8(n)
				nr++
			}
			used += n
			k++
		}
		// The window is the reader's own buffer, overwritten by its next
		// fill: keep this stretch of the frame — one copy per window, not
		// per message.
		d.f.Recs, d.f.Wire = recs[:nr], append(d.f.Wire, win[:used]...)
	}
	if errors.Is(err, errShortMsg) {
		err = nil
		if len(win)-used >= MaxMsgLen {
			// MaxMsgLen bytes cover every valid message; short here
			// means an overlong varint.
			err = errors.New("transport: malformed message")
		}
	}
	return used, k, err
}

// MaxMsgLen is the largest wire size of a scalar message: a domain
// report with four maximal 10-byte uvarints, plus the type and bit
// bytes (a domain query — version, kind and four uvarints — fits too).
const MaxMsgLen = 48

// errShortMsg reports that a slice decode ran out of bytes.
var errShortMsg = errors.New("transport: short message")

// errV1Query refuses the retired v1 point-query pair (types 4 and 5) at
// the type byte, so a client that still sends one fails closed at its
// first query instead of having its frame misparsed as something newer.
var errV1Query = errors.New("transport: v1 point query removed; send QueryV2(QueryPoint, t, 0)")

// errShardState refuses the retired shard-state export pair (types 20
// and 21) likewise: a gateway exports a shard through ShardSums, which
// a node of another encoding refuses, and folds the sums itself.
var errShardState = errors.New("transport: shard state export removed; fetch ShardSums(shard) and fold it")

// uvarintMulti decodes a uvarint whose first byte has the continuation
// bit set: the two- and three-byte encodings real streams use for user
// ids and large interval indices are unrolled, everything longer falls
// through to binary.Uvarint. The (value, length) result is identical to
// binary.Uvarint's for every input.
func uvarintMulti(b []byte) (uint64, int) {
	if len(b) >= 3 && b[0] >= 0x80 {
		if v, n := uvarint23(b, 0); n != 0 {
			return v, n
		}
	}
	return binary.Uvarint(b)
}

// decodeScalarInto is the general scalar decoder: it decodes one message
// of any type from the front of b directly into *m, returning the number
// of bytes consumed. The caller must pass a zero Msg: only the decoded
// fields are written, so the Msg view's window loop can clear a whole
// window of reused slots at once. It returns errShortMsg when b ends
// mid-message, and also for a varint of more than ten bytes, which no
// number of further bytes completes.
func decodeScalarInto(b []byte, m *Msg) (int, error) {
	if len(b) == 0 {
		return 0, errShortMsg
	}
	m.Type = MsgType(b[0])
	off := 1
	uvarint := func() (uint64, bool) {
		// Inlined fast path for the single-byte values that pepper every
		// stream (orders, items, bits, small indices); multi-byte values
		// take the uvarintMulti call. Splitting it this way keeps the
		// closure under the inlining budget — one closure call per field
		// would cost more than the decode itself.
		if off < len(b) && b[off] < 0x80 {
			v := uint64(b[off])
			off++
			return v, true
		}
		v, n := uvarintMulti(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	switch m.Type {
	case MsgHello, MsgReport, MsgDomainHello, MsgDomainReport, MsgHashedDomainHello:
		// The one ingest layout: the user; the item or bucket on a domain
		// type; the order; the index and the bit byte on a report; the
		// epoch seed on a hashed hello.
		report := m.Type == MsgReport || m.Type == MsgDomainReport
		user, ok := uvarint()
		var item, h, last uint64
		if ok && m.Type != MsgHello && m.Type != MsgReport {
			item, ok = uvarint()
		}
		if ok {
			h, ok = uvarint()
		}
		if ok && (report || m.Type == MsgHashedDomainHello) {
			last, ok = uvarint()
		}
		if !ok || report && off >= len(b) {
			return 0, errShortMsg
		}
		if user > math.MaxInt {
			return 0, fmt.Errorf("transport: user id %d overflows", user)
		}
		if item > math.MaxInt32 {
			if m.Type == MsgHashedDomainHello {
				return 0, fmt.Errorf("transport: bucket %d overflows", item)
			}
			return 0, fmt.Errorf("transport: item %d overflows", item)
		}
		if h >= maxOrder {
			return 0, fmt.Errorf("transport: order %d overflows", h)
		}
		m.User, m.Item, m.Order = int(user), int32(item), int16(h)
		if !report {
			m.Seed = last
			break
		}
		m.J = int(last)
		switch b[off] {
		case 1:
			m.Bit = 1
		case 0:
			m.Bit = -1
		default:
			return 0, fmt.Errorf("transport: invalid bit byte %d", b[off])
		}
		off++
	case MsgQuery, MsgEstimate:
		return 0, errV1Query
	case MsgShardState, MsgShardStateFrame:
		return 0, errShardState
	case MsgQueryV2:
		if off+2 > len(b) {
			return 0, errShortMsg
		}
		if b[off] != queryWireVersion {
			return 0, fmt.Errorf("transport: unsupported query version %d", b[off])
		}
		m.Kind = QueryKind(b[off+1])
		off += 2
		l, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		r, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		if l > math.MaxInt || r > math.MaxInt {
			return 0, fmt.Errorf("transport: query bound overflows")
		}
		m.L, m.R = int(l), int(r)
	case MsgSums:
		if off >= len(b) {
			return 0, errShortMsg
		}
		if b[off] != queryWireVersion && b[off] != scopedSumsVersion {
			return 0, fmt.Errorf("transport: unsupported sums-request version %d", b[off])
		}
		return decodeScope(b, off+1, m)
	case MsgDomainQuery:
		if off+2 > len(b) {
			return 0, errShortMsg
		}
		if b[off] != queryWireVersion {
			return 0, fmt.Errorf("transport: unsupported domain query version %d", b[off])
		}
		m.Kind = QueryKind(b[off+1])
		off += 2
		item, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		l, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		r, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		k, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		if item > math.MaxInt32 || l > math.MaxInt || r > math.MaxInt || k > math.MaxInt32 {
			return 0, fmt.Errorf("transport: domain query field overflows")
		}
		m.Item, m.L, m.R, m.K = int32(item), int(l), int(r), int32(k)
	case MsgDomainSums:
		if off >= len(b) {
			return 0, errShortMsg
		}
		if b[off] != queryWireVersion && b[off] != scopedSumsVersion {
			return 0, fmt.Errorf("transport: unsupported domain-sums-request version %d", b[off])
		}
		return decodeScope(b, off+1, m)
	case MsgHashedDomainSums:
		if off >= len(b) {
			return 0, errShortMsg
		}
		if b[off] != queryWireVersion && b[off] != scopedSumsVersion {
			return 0, fmt.Errorf("transport: unsupported hashed-sums-request version %d", b[off])
		}
		off++
		mm, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		g, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		seed, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		if mm > math.MaxInt32 || g > math.MaxInt32 {
			return 0, fmt.Errorf("transport: hashed-sums field overflows")
		}
		m.Item, m.K, m.Seed = int32(mm), int32(g), seed
		return decodeScope(b, off, m)
	case MsgShardSums:
		if off >= len(b) {
			return 0, errShortMsg
		}
		if b[off] != queryWireVersion && b[off] != scopedSumsVersion {
			return 0, fmt.Errorf("transport: unsupported shard-request version %d", b[off])
		}
		off++
		shard, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		if shard > membership.MaxShards {
			return 0, fmt.Errorf("transport: shard %d exceeds limit %d", shard, membership.MaxShards)
		}
		m.Shard = int32(shard)
		return decodeScope(b, off, m)
	case MsgView:
		return 0, errors.New("transport: view frame inside batch")
	case MsgShardTransfer:
		return 0, errors.New("transport: shard transfer frame inside batch")
	case MsgMemberAck:
		return 0, errors.New("transport: member ack outside ReadMemberAck")
	case MsgBatch, MsgBatchAcked:
		return 0, errors.New("transport: nested batch")
	case MsgBatchAck:
		return 0, errors.New("transport: batch ack inside batch")
	case MsgAnswer:
		return 0, errors.New("transport: answer frame outside ReadAnswer")
	case MsgSumsFrame:
		return 0, errors.New("transport: sums frame outside ReadSums")
	case MsgDomainAnswer:
		return 0, errors.New("transport: domain answer frame outside ReadDomainAnswer")
	case MsgDomainSumsFrame:
		return 0, errors.New("transport: domain sums frame outside ReadDomainSums")
	default:
		return 0, fmt.Errorf("transport: unknown message type %d", b[0])
	}
	return off, nil
}

// decodeScope decodes the tail of a sums request whose own fields end at
// b[off]: nothing more under version 1, the scope under version 2. It
// returns the request's length.
func decodeScope(b []byte, off int, m *Msg) (int, error) {
	if b[1] == queryWireVersion {
		return off, nil
	}
	l, n := binary.Uvarint(b[off:])
	r, k := binary.Uvarint(b[off+max(n, 0):])
	if n <= 0 || k <= 0 {
		return 0, errShortMsg
	}
	if l < 1 || r < l || r > MaxSumsD {
		return 0, fmt.Errorf("transport: invalid sums scope [%d..%d]", l, r)
	}
	m.L, m.R = int(l), int(r)
	return off + n + k, nil
}

func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// AnswerFrame is the server's response to a v2 query: the echoed query
// shape plus one value per requested quantity (one for point and change
// queries, a whole series for series and window queries). It is
// variable-length, so it travels outside Msg via EncodeAnswer and
// ReadAnswer.
type AnswerFrame struct {
	Kind   QueryKind
	L, R   int
	Values []float64
}

// EncodeAnswer writes one MsgAnswer frame.
func (e *Encoder) EncodeAnswer(a AnswerFrame) error {
	b, err := appendAnswer(e.scratch[:0], a)
	if err != nil {
		return err
	}
	return e.writeScratch(b)
}

// appendAnswer appends one MsgAnswer frame to b. It only reads
// a.Values (see EncodeAnswerUnlocking).
func appendAnswer(b []byte, a AnswerFrame) ([]byte, error) {
	if len(a.Values) > MaxAnswerLen {
		return b, fmt.Errorf("transport: answer of %d values exceeds limit %d", len(a.Values), MaxAnswerLen)
	}
	if a.L < 0 || a.R < 0 {
		return b, fmt.Errorf("transport: negative answer bound [%d..%d]", a.L, a.R)
	}
	b = append(b, byte(MsgAnswer), queryWireVersion, byte(a.Kind))
	b = binary.AppendUvarint(b, uint64(a.L))
	b = binary.AppendUvarint(b, uint64(a.R))
	b = binary.AppendUvarint(b, uint64(len(a.Values)))
	for _, v := range a.Values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b, nil
}

// EncodeAnswerUnlocking writes one MsgAnswer frame for a caller that
// holds mu over a.Values: the frame is encoded into the scratch buffer
// under mu, which is then unlocked — on error too — before any byte is
// written, so no I/O happens under it.
func (e *Encoder) EncodeAnswerUnlocking(a AnswerFrame, mu *sync.Mutex) error {
	b, err := appendAnswer(e.scratch[:0], a)
	mu.Unlock()
	if err != nil {
		return err
	}
	return e.writeScratch(b)
}

// writeScratch writes a frame built in the scratch buffer, keeping the
// grown buffer for the next frame.
func (e *Encoder) writeScratch(b []byte) error {
	e.scratch = b[:0]
	return e.WriteFrame(b)
}

// WriteFrame writes frame bytes the caller assembled — a batch header in
// front of message encodings as they arrived on another connection —
// counting them in BytesWritten.
func (e *Encoder) WriteFrame(b []byte) error {
	n, err := e.w.Write(b)
	e.n += int64(n)
	return err
}

// ReadAnswer decodes one MsgAnswer frame. It must be called when an
// answer is the next frame on the stream — after sending a v2 query —
// and fails on any other frame type.
func (d *Decoder) ReadAnswer() (AnswerFrame, error) {
	if d.next < len(d.pending) {
		return AnswerFrame{}, errors.New("transport: answer frame inside batch")
	}
	d.unwrap()
	tb, err := d.r.ReadByte()
	if err != nil {
		return AnswerFrame{}, err // io.EOF passes through
	}
	if MsgType(tb) != MsgAnswer {
		return AnswerFrame{}, fmt.Errorf("transport: expected answer frame, got message type %d", tb)
	}
	ver, err := d.r.ReadByte()
	if err != nil {
		return AnswerFrame{}, truncated(err)
	}
	if ver != queryWireVersion {
		return AnswerFrame{}, fmt.Errorf("transport: unsupported answer version %d", ver)
	}
	kind, err := d.r.ReadByte()
	if err != nil {
		return AnswerFrame{}, truncated(err)
	}
	l, err := binary.ReadUvarint(d.r)
	if err != nil {
		return AnswerFrame{}, truncated(err)
	}
	r, err := binary.ReadUvarint(d.r)
	if err != nil {
		return AnswerFrame{}, truncated(err)
	}
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return AnswerFrame{}, truncated(err)
	}
	if l > math.MaxInt || r > math.MaxInt {
		return AnswerFrame{}, fmt.Errorf("transport: answer bound overflows")
	}
	if n > MaxAnswerLen {
		return AnswerFrame{}, fmt.Errorf("transport: answer length %d exceeds limit %d", n, MaxAnswerLen)
	}
	a := AnswerFrame{Kind: QueryKind(kind), L: int(l), R: int(r)}
	if n > 0 {
		a.Values = make([]float64, n)
		if err := d.readFloats(a.Values); err != nil {
			return AnswerFrame{}, err
		}
	}
	return a, nil
}

// readFloats decodes len(dst) little-endian float64 bit patterns into
// dst — value for value, and failure for failure, what one io.ReadFull
// of eight bytes per value would — out of the buffered window: one Peek
// and one Discard per buffer's worth instead of a read call per value.
// A block longer than the small read buffer moves the connection to the
// large one, as an overrunning batch frame does, so a Series answer
// arrives in one read. It never asks the stream for more than the values
// still owed need, so it does not wait on bytes the peer has not sent.
func (d *Decoder) readFloats(dst []float64) error {
	if len(dst)*8 > d.r.Size() {
		d.growBuffer()
	}
	for len(dst) > 0 {
		win, err := d.r.Peek(min(len(dst)*8, d.r.Size()))
		k := len(win) / 8
		for i := range k {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(win[8*i:]))
		}
		d.r.Discard(8 * k)
		if dst = dst[k:]; k == 0 && err != nil {
			return truncated(err)
		}
	}
	return nil
}

// ReadBatchAck decodes one MsgBatchAck frame: the server's verdict on
// the oldest unacknowledged acked batch. It reports applied=true when
// the whole batch was ingested and applied=false when the server's
// bounded queue shed the whole batch; there is no partial outcome by
// construction. It must be called when an ack is the next frame on the
// stream and fails on any other frame type.
func (d *Decoder) ReadBatchAck() (applied bool, err error) {
	return d.readAck(MsgBatchAck, "batch ack")
}

// readAck decodes one two-byte ack frame of type typ, named what in its
// errors.
func (d *Decoder) readAck(typ MsgType, what string) (bool, error) {
	if d.next < len(d.pending) {
		return false, fmt.Errorf("transport: %s inside batch", what)
	}
	d.unwrap()
	tb, err := d.r.ReadByte()
	if err != nil {
		return false, err // io.EOF passes through
	}
	if MsgType(tb) != typ {
		return false, fmt.Errorf("transport: expected %s, got message type %d", what, tb)
	}
	status, err := d.r.ReadByte()
	if err != nil {
		return false, truncated(err)
	}
	if status > 1 {
		return false, fmt.Errorf("transport: invalid %s status %d", what, status)
	}
	return status == 1, nil
}

// ValidateQuery is the validate-only path of AnswerQuery: it
// range-checks a v2 query frame against horizon d without touching any
// accumulator. The ingest server runs it over a whole batch before
// applying anything, keeping batches atomic.
func ValidateQuery(d int, m Msg) error {
	if m.Type != MsgQueryV2 {
		return fmt.Errorf("transport: message type %d is not a v2 query", m.Type)
	}
	switch m.Kind {
	case QueryPoint:
		if m.L < 1 || m.L > d {
			return fmt.Errorf("transport: point query time %d out of range [1..%d]", m.L, d)
		}
	case QueryChange:
		if m.L < 1 || m.R > d || m.L > m.R {
			return fmt.Errorf("transport: change query range [%d..%d] invalid for d=%d", m.L, m.R, d)
		}
	case QuerySeries:
		// No bounds.
	case QueryWindow:
		if m.L < 1 || m.R > d || m.L > m.R {
			return fmt.Errorf("transport: window query range [%d..%d] invalid for d=%d", m.L, m.R, d)
		}
	default:
		return fmt.Errorf("transport: unknown query kind %d", byte(m.Kind))
	}
	return nil
}
