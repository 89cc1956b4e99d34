package ldp

import (
	"fmt"
	"io"
	"math"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/wire"
)

// MaxUnacked bounds the batches a Conn has sent whose acks it has not
// read. At the bound, Send reads the oldest ack before it writes, so a
// stream that never asks for its acks can neither fill the server's ack
// writes nor block its own batch writes behind them.
const MaxUnacked = 8

// Conn is the client of the served protocol: one connection to an
// rtf-serve instance or an rtf-gateway, which the caller dials (a
// net.Conn, or any io.ReadWriter) and closes. It does three things:
//
//   - Send: it queues order announcements and reports — Boolean
//     (Hello, Report) or domain (DomainHello, DomainReport) — and ships
//     what is queued as one acknowledged batch frame on Send. Every call
//     is checked against the deployment's ingest contract before it
//     queues, so a refused input never enters a batch.
//   - Ask: Answer sends a Query and returns the Answer the in-process
//     Server or DomainServer returns for it, bit for bit.
//   - Fence: Fence ships what is queued, reads every outstanding ack and
//     round-trips one read, after which everything the server applied
//     from this connection is visible to every reader.
//
// The server takes or sheds each batch whole. Acks and Fence hand every
// verdict back in send order; a shed batch is the caller's to queue
// again or drop. The Conn keeps each verdict it has read until Acks or
// Fence hands it back. After an I/O or protocol failure every call
// returns that failure. A Conn is not safe for concurrent use.
type Conn struct {
	enc *wire.Encoder
	dec *wire.Decoder
	// in is the deployment's ingest contract, the server's own check;
	// domain is its encoding, zero on a Boolean Conn.
	in     wire.Ingest
	domain hh.DomainEncoding

	body    []byte // the queued messages' encodings: the next batch's body
	queued  int
	unacked int    // batches sent whose ack is unread
	acks    []bool // verdicts read and not yet handed back
	err     error
}

// NewConn returns the client of a Boolean deployment over horizon d (a
// power of two, the servers' -d) on rw.
func NewConn(rw io.ReadWriter, d int) (*Conn, error) {
	return newConn(rw, d, hh.DomainEncoding{})
}

// NewDomainConn returns the client of a domain deployment over horizon d
// and domain size m on rw. The encoding options — WithDomainEncoding,
// WithBuckets, WithHashSeed — must match the servers',
// as for NewDomainServer; a hashed encoding's hellos carry its hash seed.
func NewDomainConn(rw io.ReadWriter, d, m int, opts ...Option) (*Conn, error) {
	enc, err := domainEncodingOf(newConfig(opts), m)
	if err != nil {
		return nil, err
	}
	return newConn(rw, d, enc)
}

func newConn(rw io.ReadWriter, d int, enc hh.DomainEncoding) (*Conn, error) {
	if !dyadic.IsPow2(d) || d > math.MaxInt32 {
		return nil, fmt.Errorf("ldp: d=%d is not a power of two below 2^31", d)
	}
	in := wire.BoolIngest(d)
	if enc.M != 0 {
		in = wire.DomainIngest(d, enc)
	}
	return &Conn{enc: wire.NewEncoder(rw), dec: wire.NewDecoder(rw), in: in, domain: enc}, nil
}

// Hello queues a user's order announcement on a Boolean Conn. Send it
// once per user, before the user's reports.
func (c *Conn) Hello(user, order int) error { return c.push(wire.Hello(user, order)) }

// Report queues one client report on a Boolean Conn.
func (c *Conn) Report(r Report) error { return c.push(wire.FromReport(r)) }

// DomainHello queues a user's announcement on a domain Conn: the row the
// user's DomainClient sampled (DomainClient.Item — an item, or a bucket
// under a hashed encoding) and its order.
func (c *Conn) DomainHello(user, item, order int) error {
	if c.domain.Hashed() {
		return c.push(wire.HashedDomainHello(user, item, order, c.domain.Seed))
	}
	return c.push(wire.DomainHello(user, item, order))
}

// DomainReport queues one domain client report on a domain Conn.
func (c *Conn) DomainReport(r DomainReport) error {
	return c.push(wire.FromDomainReport(r.Item, r.Report))
}

// push checks m against the contract and queues it. A full frame ships.
func (c *Conn) push(m wire.Msg) error {
	if c.err != nil {
		return c.err
	}
	if rec := (wire.Rec{}); !c.in.Check(&m, &rec) {
		return c.in.Explain(&m)
	}
	body, err := wire.AppendMsgs(c.body, []wire.Msg{m})
	if err != nil {
		return err
	}
	c.body = body
	if c.queued++; c.queued == wire.MaxBatchLen {
		return c.Send()
	}
	return nil
}

// Queued returns the number of messages the next Send ships.
func (c *Conn) Queued() int { return c.queued }

// Send ships the queued messages, if any, as one acknowledged batch
// frame. With MaxUnacked batches awaiting their acks it first reads the
// oldest.
func (c *Conn) Send() error {
	// readAcks and write leave their failure in c.err.
	if c.queued == 0 || c.readAcks(MaxUnacked-1) != nil ||
		c.write(wire.AppendBatchHeader(nil, wire.MsgBatchAcked, c.queued), c.body) != nil {
		return c.err
	}
	c.body, c.queued = c.body[:0], 0
	c.unacked++
	return nil
}

// write writes frames and flushes them.
func (c *Conn) write(frames ...[]byte) error {
	if c.err != nil {
		return c.err
	}
	for _, f := range frames {
		_ = c.enc.WriteFrame(f) // the encoder's buffer keeps a write error, and Flush returns it
	}
	c.err = c.enc.Flush()
	return c.err
}

// readAcks reads acks until at most n batches await theirs.
func (c *Conn) readAcks(n int) error {
	for c.err == nil && c.unacked > n {
		applied, err := c.dec.ReadBatchAck()
		if c.err = err; err == nil {
			c.unacked--
			c.acks = append(c.acks, applied)
		}
	}
	return c.err
}

// Acks reads acks until at most n sent batches await theirs, and hands
// back the verdict of every batch acked since the last Acks or Fence, in
// send order: true if the server took the batch whole — applied it, or
// on a gateway forwarded it, which the next read certifies as applied —
// and false if its bounded ingest queue shed the batch whole. Acks(0)
// waits for every batch sent. On a failure it hands back the verdicts
// read before it.
func (c *Conn) Acks(n int) ([]bool, error) {
	err := c.readAcks(max(n, 0))
	acks := c.acks
	c.acks = nil
	return acks, err
}

// Fence ships what is queued, reads every outstanding ack and
// round-trips the deployment's cheapest read. The server handles a
// connection's frames in order, so its answer certifies that every
// batch the verdicts say was applied is applied — and, on a durable
// server, journaled. It returns the verdicts as Acks(0) does.
func (c *Conn) Fence() ([]bool, error) {
	q := PointQuery(1)
	if c.domain.M != 0 {
		q = PointItemQuery(0, 1)
	}
	if err := c.Send(); err != nil {
		return nil, err
	}
	if _, err := c.Answer(q); err != nil {
		return nil, err
	}
	return c.Acks(0)
}

// Answer asks the deployment q and returns what Server.Answer (Boolean
// kinds) or DomainServer.Answer (item-scoped kinds) returns for it: Point,
// Change and PointItem fill Value; Series, Window and SeriesItem fill
// Series; TopK fills Items and the parallel Series. A query the
// deployment would refuse is refused here and never sent. Queued
// messages stay queued.
func (c *Conn) Answer(q Query) (Answer, error) {
	l, r := q.L, q.R
	if q.Kind == Point || q.Kind == PointItem || q.Kind == TopK {
		l, r = q.T, 0
	}
	m := wire.QueryV2(wire.QueryKind(q.Kind), l, r)
	err := wire.ValidateQuery(c.in.D, m)
	if c.domain.M != 0 {
		m = wire.DomainQuery(m.Kind, q.Item, l, r, q.K)
		err = wire.ValidateDomainQuery(c.in.D, c.domain, m)
	}
	if err != nil {
		return Answer{}, err
	}
	b, err := wire.AppendMsgs(nil, []wire.Msg{m})
	if err != nil {
		return Answer{}, err
	}
	// The acks of the batches sent before the query come before its
	// answer on the stream.
	if c.write(b) != nil || c.readAcks(0) != nil {
		return Answer{}, c.err
	}
	var f wire.DomainAnswerFrame
	if c.domain.M != 0 {
		f, err = c.dec.ReadDomainAnswer()
	} else {
		var bf wire.AnswerFrame
		bf, err = c.dec.ReadAnswer()
		f.Kind, f.Values = bf.Kind, bf.Values
	}
	scalar := q.Kind == Point || q.Kind == Change || q.Kind == PointItem
	if err == nil && (f.Kind != m.Kind || scalar && len(f.Values) != 1) {
		err = fmt.Errorf("ldp: %s query answered by a %s frame of %d values", q.Kind, f.Kind, len(f.Values))
	}
	if c.err = err; err != nil {
		return Answer{}, err
	}
	a := Answer{Query: q, Items: f.Items, Series: f.Values}
	if scalar {
		a.Value, a.Series = f.Values[0], nil
	}
	return a, nil
}

// BytesWritten returns the wire bytes the Conn has written.
func (c *Conn) BytesWritten() int64 { return c.enc.BytesWritten() }
