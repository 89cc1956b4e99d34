// Package transport provides the system substrate between clients and
// the server: a compact varint wire format for the protocol's messages
// (order announcements, per-period reports, batch frames carrying many
// of either, query/answer and raw-sums pairs, the membership control
// frames), and the serving core built on it — the Mode contract
// (mode.go) that alone knows what distinguishes the Boolean, exact
// domain and hashed domain protocols, the ingest path from bytes to
// validated 24-byte records under that contract (ingest.go), one frame
// loop and connection lifecycle (serve.go), and one in-memory collector,
// one shard-map collector and one durable journal around either
// (collector.go, shardmap.go, durable.go). cmd/rtf-serve is an IngestServer over one of
// those stores; internal/cluster's gateways run the same frame loop over
// backend connections.
//
// The paper's protocol is transport-agnostic; this package exists so the
// repository exercises the client/server split as an actual distributed
// system — message framing, batching, concurrent sharded ingestion,
// durability, scale-out — rather than as in-process function calls only.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"rtf/internal/dyadic"
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
	MsgShardState      MsgType = 20 // request: snapshot state of one virtual shard
	MsgShardStateFrame MsgType = 21 // response: one shard's serialized state
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
type Msg struct {
	Type  MsgType
	User  int
	Order int
	J     int       // report only
	Bit   int8      // report only, ±1
	Kind  QueryKind // v2 and domain queries only
	L, R  int       // v2 and domain queries: range (point queries use L = t); sums requests: scope, 0 for every column
	Item  int       // domain messages only: the sampled target item
	K     int       // domain top-k query only: how many items
	Shard int       // membership shard requests only: the virtual shard
	Seed  uint64    // hashed domain messages only: the shared epoch hash seed
}

// Hello constructs an order-announcement message.
func Hello(user, order int) Msg {
	return Msg{Type: MsgHello, User: user, Order: order}
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
	return Msg{Type: MsgDomainHello, User: user, Item: item, Order: order}
}

// FromDomainReport tags a protocol report with its target item for a
// domain server.
func FromDomainReport(item int, r protocol.Report) Msg {
	return Msg{Type: MsgDomainReport, User: r.User, Item: item, Order: r.Order, J: r.J, Bit: r.Bit}
}

// DomainQuery constructs a versioned item-scoped query frame.
// Point-item queries use l for the time; series-item queries ignore the
// bounds; top-k queries use l for the time and k for the item count
// (item is ignored).
func DomainQuery(kind QueryKind, item, l, r, k int) Msg {
	return Msg{Type: MsgDomainQuery, Kind: kind, Item: item, L: l, R: r, K: k}
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
	return Msg{Type: MsgHashedDomainHello, User: user, Item: bucket, Order: order, Seed: seed}
}

// HashedDomainSums constructs a per-bucket raw-sums request carrying
// the requester's full encoding parameters: catalogue size m (in Item),
// bucket count g (in K) and the epoch hash seed. The server answers
// with one ordinary MsgDomainSumsFrame over its g bucket rows — but only
// after checking all three parameters match its own encoding, so two
// deployments hashing differently can never silently merge counters.
func HashedDomainSums(m, g int, seed uint64) Msg {
	return Msg{Type: MsgHashedDomainSums, Item: m, K: g, Seed: seed}
}

// ShardSums constructs a per-virtual-shard raw-sums request: a
// membership-mode server answers with one MsgSumsFrame (Boolean) or
// MsgDomainSumsFrame (domain) scoped to that shard's accumulator. The
// member gateway scatters these to a quorum of the shard's replicas
// and compares the exact integer counters.
func ShardSums(shard int) Msg {
	return Msg{Type: MsgShardSums, Shard: shard}
}

// ShardState constructs a shard-snapshot request: the server answers
// with one MsgShardStateFrame carrying the shard's serialized state
// (the protocol state encoding), the transfer format of a reshard.
func ShardState(shard int) Msg {
	return Msg{Type: MsgShardState, Shard: shard}
}

// FromReport converts a protocol report to a wire message.
func FromReport(r protocol.Report) Msg {
	return Msg{Type: MsgReport, User: r.User, Order: r.Order, J: r.J, Bit: r.Bit}
}

// Report converts a decoded message back to a protocol report. It panics
// if the message is not a report.
func (m Msg) Report() protocol.Report {
	if m.Type != MsgReport {
		panic("transport: not a report message")
	}
	return protocol.Report{User: m.User, Order: m.Order, J: m.J, Bit: m.Bit}
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
	n, err := e.w.Write(b)
	e.n += int64(n)
	return err
}

// appendMsg appends the scalar wire encoding of m to b. It takes the
// Msg by pointer: this is the inner loop of every batch encode.
func appendMsg(b []byte, m *Msg) ([]byte, error) {
	b = append(b, byte(m.Type))
	switch m.Type {
	case MsgHello:
		if m.User < 0 {
			return nil, fmt.Errorf("transport: negative user id %d", m.User)
		}
		b = binary.AppendUvarint(b, uint64(m.User))
		b = binary.AppendUvarint(b, uint64(m.Order))
	case MsgReport:
		if m.User < 0 {
			return nil, fmt.Errorf("transport: negative user id %d", m.User)
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
	case MsgShardSums, MsgShardState:
		if m.Shard < 0 {
			return nil, fmt.Errorf("transport: negative shard %d", m.Shard)
		}
		if m.Type == MsgShardState {
			return binary.AppendUvarint(append(b, queryWireVersion), uint64(m.Shard)), nil
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

// appendBatchHeader appends a batch frame's header: the type byte —
// MsgBatch for fire-and-forget batches, MsgBatchAcked for batches the
// server must acknowledge (applied whole or shed whole) — and a uvarint
// message count.
func appendBatchHeader(b []byte, typ MsgType, n int) []byte {
	return binary.AppendUvarint(append(b, byte(typ)), uint64(n))
}

// appendMsgs appends the scalar encodings of ms back to back: a batch
// frame's body.
func appendMsgs(b []byte, ms []Msg) ([]byte, error) {
	var err error
	for i := range ms {
		if t := ms[i].Type; t == MsgBatch || t == MsgBatchAcked {
			return nil, errors.New("transport: nested batch")
		}
		if b, err = appendMsg(b, &ms[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendBatch appends one batch frame carrying all the given hello and
// report messages: header, then body. A write-ahead-log record is a
// MsgBatch frame too — header, then the body bytes as they arrived (see
// durableJournal.journal) — so recovery replays through the ordinary
// decoder.
func appendBatch(b []byte, typ MsgType, ms []Msg) ([]byte, error) {
	if len(ms) > MaxBatchLen {
		return nil, fmt.Errorf("transport: batch of %d messages exceeds limit %d", len(ms), MaxBatchLen)
	}
	if typ == MsgBatchAcked && len(ms) == 0 {
		return nil, errors.New("transport: empty acked batch")
	}
	return appendMsgs(appendBatchHeader(b, typ, len(ms)), ms)
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
	e.scratch = b[:0] // keep the grown buffer for the next batch
	n, err := e.w.Write(b)
	e.n += int64(n)
	return err
}

// EncodeBatchAck writes the server's response to one acked batch.
func (e *Encoder) EncodeBatchAck(applied bool) error {
	status := byte(0)
	if applied {
		status = 1
	}
	n, err := e.w.Write(append(e.scratch[:0], byte(MsgBatchAck), status))
	e.n += int64(n)
	return err
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
// server runs — and Next / NextBatch decode into Msgs for callers that
// have no mode.
type Decoder struct {
	r   *bufio.Reader
	src io.Reader // what r reads from, kept so the buffer can grow

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

// NewDecoder wraps a reader.
func NewDecoder(r io.Reader) *Decoder { return newDecoderSize(r, smallReadBuffer) }

func newDecoderSize(r io.Reader, size int) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, size), src: r}
}

// Next decodes one scalar message. Batch frames are unbatched
// transparently: the frame's messages are returned one per call. Next
// returns io.EOF cleanly at end of stream and io.ErrUnexpectedEOF on a
// truncated message. Empty batch frames are skipped iteratively, so a
// stream of them cannot grow the stack.
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
// are skipped.
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
// frame with the error the mode's Validate*Ingest gives it — before the
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
// maxScalarWire bytes of wire each, a Msg each for a mode-less caller —
// must not stay pinned for the connection's lifetime, but neither may it
// be dropped while the stream still fills it, or every frame of a sender
// whose batches exceed this size would reallocate it: it is released
// after smallFramesToRelease consecutive frames that each used under a
// quarter of it.
const (
	maxRetainedBatch     = 1 << 12
	smallFramesToRelease = 32
)

// AckedBatch reports whether the most recent frame decoded by NextBatch
// was an acknowledged batch (MsgBatchAcked): the peer is waiting for
// exactly one BatchAck for it.
func (d *Decoder) AckedBatch() bool { return d.f.Acked }

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
			return c.explain(&m)
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
		if len(win) == d.r.Size() && len(win) < largeReadBuffer {
			// The frame overran a full buffer: see smallReadBuffer.
			rest, _ := d.r.Peek(d.r.Buffered())
			d.r = bufio.NewReaderSize(io.MultiReader(bytes.NewReader(bytes.Clone(rest)), d.src), largeReadBuffer)
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
// window cuts short. The per-message step is the view's: without a
// contract the general decoder fills a Msg; with one the kernel fills a
// record, and the general decoder only sees what the kernel does not
// take — a read, a refusal, an odd spelling, or the last maxScalarWire
// bytes of the window, where the kernel's precondition fails — and what
// it decodes goes through the same contract.
func (d *Decoder) window(c *Ingest, win []byte, want, limit int) (used, k int, err error) {
	// Make room for every message this window could hold (each scalar is
	// at least two bytes; a lone type byte can already be refused), so
	// the loop indexes slots with no per-message capacity check.
	want = min(want, (len(win)+1)/2)
	var (
		msgs []Msg
		recs []Rec
	)
	base, nr := len(d.pending), len(d.f.Recs)
	if c == nil {
		d.pending = roomFor(d.pending, want, limit)
		msgs = d.pending[base : base+want]
		// decodeScalarInto writes only the fields it decodes: one
		// vectorized clear of the reused slots instead of a struct zero
		// per message.
		clear(msgs)
	} else {
		recs = roomFor(d.f.Recs, want, limit)[:nr+want]
	}
loop:
	for ; k < want; k++ {
		rest, n := win[used:], 0
		switch {
		case c == nil:
			if n, err = decodeScalarInto(rest, &msgs[k]); err != nil {
				break loop
			}
		case len(rest) >= maxScalarWire:
			n = c.decode(rest, &recs[nr])
		}
		if n == 0 {
			// Under a contract, and not the kernel's: the general decoder,
			// then the same contract.
			var m Msg
			if n, err = decodeScalarInto(rest, &m); err != nil {
				break loop
			}
			if c.Reads.Has(m.Type) {
				off := len(d.f.Wire) + used
				d.f.Reads = append(d.f.Reads, FrameRead{At: nr, Off: off, End: off + n, Msg: m})
				used += n
				continue
			}
			if !c.check(&m, &recs[nr]) {
				err = c.explain(&m)
				break loop
			}
			recs[nr].Len = uint8(n)
		}
		used += n
		nr++
	}
	if c == nil {
		d.pending = d.pending[:base+k]
	} else {
		// The window is the reader's own buffer, overwritten by its next
		// fill: keep this stretch of the frame — one copy per window, not
		// per message.
		d.f.Recs, d.f.Wire = recs[:nr], append(d.f.Wire, win[:used]...)
	}
	if errors.Is(err, errShortMsg) {
		err = nil
		if len(win)-used >= maxScalarWire {
			// maxScalarWire bytes cover every valid message; short here
			// means an overlong varint.
			err = errors.New("transport: malformed message")
		}
	}
	return used, k, err
}

// maxScalarWire is the largest wire size of a scalar message: a domain
// report with four maximal 10-byte uvarints, plus the type and bit
// bytes (a domain query — version, kind and four uvarints — fits too).
const maxScalarWire = 48

// errShortMsg reports that a slice decode ran out of bytes.
var errShortMsg = errors.New("transport: short message")

// errV1Query refuses the retired v1 point-query pair (types 4 and 5) at
// the type byte, so a client that still sends one fails closed at its
// first query instead of having its frame misparsed as something newer.
var errV1Query = errors.New("transport: v1 point query removed; send QueryV2(QueryPoint, t, 0)")

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
	case MsgHello:
		user, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		h, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		if user > math.MaxInt {
			return 0, fmt.Errorf("transport: user id %d overflows", user)
		}
		m.User, m.Order = int(user), int(h)
	case MsgReport:
		user, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		h, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		j, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		if off >= len(b) {
			return 0, errShortMsg
		}
		if user > math.MaxInt {
			return 0, fmt.Errorf("transport: user id %d overflows", user)
		}
		m.User, m.Order, m.J = int(user), int(h), int(j)
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
	case MsgDomainHello:
		user, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		item, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		h, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		if user > math.MaxInt {
			return 0, fmt.Errorf("transport: user id %d overflows", user)
		}
		if item > math.MaxInt {
			return 0, fmt.Errorf("transport: item %d overflows", item)
		}
		m.User, m.Item, m.Order = int(user), int(item), int(h)
	case MsgDomainReport:
		user, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		item, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		h, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		j, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		if off >= len(b) {
			return 0, errShortMsg
		}
		if user > math.MaxInt {
			return 0, fmt.Errorf("transport: user id %d overflows", user)
		}
		if item > math.MaxInt {
			return 0, fmt.Errorf("transport: item %d overflows", item)
		}
		m.User, m.Item, m.Order, m.J = int(user), int(item), int(h), int(j)
		switch b[off] {
		case 1:
			m.Bit = 1
		case 0:
			m.Bit = -1
		default:
			return 0, fmt.Errorf("transport: invalid bit byte %d", b[off])
		}
		off++
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
		if item > math.MaxInt || l > math.MaxInt || r > math.MaxInt || k > math.MaxInt {
			return 0, fmt.Errorf("transport: domain query field overflows")
		}
		m.Item, m.L, m.R, m.K = int(item), int(l), int(r), int(k)
	case MsgDomainSums:
		if off >= len(b) {
			return 0, errShortMsg
		}
		if b[off] != queryWireVersion && b[off] != scopedSumsVersion {
			return 0, fmt.Errorf("transport: unsupported domain-sums-request version %d", b[off])
		}
		return decodeScope(b, off+1, m)
	case MsgHashedDomainHello:
		user, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		bucket, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		h, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		seed, ok := uvarint()
		if !ok {
			return 0, errShortMsg
		}
		if user > math.MaxInt {
			return 0, fmt.Errorf("transport: user id %d overflows", user)
		}
		if bucket > math.MaxInt {
			return 0, fmt.Errorf("transport: bucket %d overflows", bucket)
		}
		m.User, m.Item, m.Order, m.Seed = int(user), int(bucket), int(h), seed
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
		if mm > math.MaxInt || g > math.MaxInt {
			return 0, fmt.Errorf("transport: hashed-sums field overflows")
		}
		m.Item, m.K, m.Seed = int(mm), int(g), seed
		return decodeScope(b, off, m)
	case MsgShardSums, MsgShardState:
		if off >= len(b) {
			return 0, errShortMsg
		}
		if b[off] != queryWireVersion && (b[off] != scopedSumsVersion || m.Type == MsgShardState) {
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
		m.Shard = int(shard)
		return decodeScope(b, off, m)
	case MsgView:
		return 0, errors.New("transport: view frame inside batch")
	case MsgShardTransfer:
		return 0, errors.New("transport: shard transfer frame inside batch")
	case MsgShardStateFrame:
		return 0, errors.New("transport: shard state frame outside ReadShardState")
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
// a.Values, so a caller holding a lock over them can encode into the
// scratch buffer under it and write after releasing it.
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

// writeScratch writes a frame built in the scratch buffer, keeping the
// grown buffer for the next frame.
func (e *Encoder) writeScratch(b []byte) error {
	e.scratch = b[:0]
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
	}
	var raw [8]byte
	for i := range a.Values {
		if _, err := io.ReadFull(d.r, raw[:]); err != nil {
			return AnswerFrame{}, truncated(err)
		}
		a.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
	return a, nil
}

// ReadBatchAck decodes one MsgBatchAck frame: the server's verdict on
// the oldest unacknowledged acked batch. It reports applied=true when
// the whole batch was ingested and applied=false when the server's
// bounded queue shed the whole batch; there is no partial outcome by
// construction. It must be called when an ack is the next frame on the
// stream and fails on any other frame type.
func (d *Decoder) ReadBatchAck() (applied bool, err error) {
	if d.next < len(d.pending) {
		return false, errors.New("transport: batch ack inside batch")
	}
	tb, err := d.r.ReadByte()
	if err != nil {
		return false, err // io.EOF passes through
	}
	if MsgType(tb) != MsgBatchAck {
		return false, fmt.Errorf("transport: expected batch ack, got message type %d", tb)
	}
	status, err := d.r.ReadByte()
	if err != nil {
		return false, truncated(err)
	}
	if status > 1 {
		return false, fmt.Errorf("transport: invalid batch ack status %d", status)
	}
	return status == 1, nil
}

// ValidateIngest range-checks one hello or report message against the
// dyadic-accumulator parameters for horizon d: the Boolean ingest
// contract (Ingest.check) with the refusal spelled out. Every front
// decodes under the same contract, so a batch a gateway accepts cannot
// be rejected downstream by a backend.
func ValidateIngest(d int, m Msg) error { return validateIngest(d, dyadic.Log2(d), &m) }

// validateIngest is the body of ValidateIngest and the Boolean
// contract's error builder: it returns nil exactly when Ingest.check
// accepts m. maxOrder must be dyadic.Log2(d).
func validateIngest(d, maxOrder int, m *Msg) error {
	switch m.Type {
	case MsgHello:
		if m.User < 0 {
			return fmt.Errorf("transport: negative user id %d", m.User)
		}
		if uint(m.Order) > uint(maxOrder) {
			return fmt.Errorf("transport: hello order %d out of range [0..%d]", m.Order, maxOrder)
		}
	case MsgReport:
		if m.User < 0 {
			return fmt.Errorf("transport: negative user id %d", m.User)
		}
		if m.Bit != 1 && m.Bit != -1 {
			return fmt.Errorf("transport: report bit %d not ±1", m.Bit)
		}
		if uint(m.Order) > uint(maxOrder) {
			return fmt.Errorf("transport: report order %d out of range [0..%d]", m.Order, maxOrder)
		}
		if uint(m.J-1) >= uint(d>>uint(m.Order)) {
			return fmt.Errorf("transport: report index %d out of range for order %d", m.J, m.Order)
		}
	default:
		return fmt.Errorf("transport: collector cannot ingest message type %d", m.Type)
	}
	return nil
}
