package ldp

import (
	"errors"
	"fmt"
	"io"

	"rtf/internal/wire"
)

// BatchReporter is the client-side batching layer of the streaming API:
// it buffers order announcements and reports and ships them to an
// io.Writer (typically a TCP connection to an rtf-serve aggregation
// service) as compact batch frames, amortizing framing and dispatch
// overhead over batchSize messages. It is not safe for concurrent use;
// give each connection its own reporter.
//
// Batching does not change the protocol's privacy or accuracy: every
// report is already locally randomized before it reaches the reporter,
// and the server's accumulation is order-independent.
type BatchReporter struct {
	enc *wire.Encoder
	buf []wire.Msg
	max int
}

// NewBatchReporter wraps w. Batches are flushed automatically once
// batchSize messages accumulate, and on Flush.
func NewBatchReporter(w io.Writer, batchSize int) (*BatchReporter, error) {
	if batchSize < 1 || batchSize > wire.MaxBatchLen {
		return nil, fmt.Errorf("ldp: batch size %d outside [1..%d]", batchSize, wire.MaxBatchLen)
	}
	return &BatchReporter{
		enc: wire.NewEncoder(w),
		buf: make([]wire.Msg, 0, batchSize),
		max: batchSize,
	}, nil
}

// Hello queues a user's order announcement (send once per user, before
// its reports).
func (b *BatchReporter) Hello(user, order int) error {
	return b.push(wire.Hello(user, order))
}

// Report queues one client report.
func (b *BatchReporter) Report(r Report) error {
	if r.Bit != 1 && r.Bit != -1 {
		return fmt.Errorf("ldp: report bit %d must be ±1", r.Bit)
	}
	return b.push(wire.FromReport(r))
}

func (b *BatchReporter) push(m wire.Msg) error {
	b.buf = append(b.buf, m)
	if len(b.buf) >= b.max {
		return b.Flush()
	}
	return nil
}

// Flush ships any buffered messages as one batch frame and flushes the
// underlying writer. Call it after the last report (a reporter holds up
// to batchSize−1 messages otherwise).
func (b *BatchReporter) Flush() error {
	if len(b.buf) > 0 {
		if err := b.enc.EncodeBatch(b.buf); err != nil {
			return err
		}
		b.buf = b.buf[:0]
	}
	return b.enc.Flush()
}

// Buffered returns the number of messages queued but not yet shipped.
func (b *BatchReporter) Buffered() int { return len(b.buf) }

// BytesWritten returns the total wire bytes produced so far.
func (b *BatchReporter) BytesWritten() int64 { return b.enc.BytesWritten() }

// IngestFrom decodes framed messages from r — single messages or batch
// frames, as produced by a BatchReporter — and applies them to the
// server until EOF: order announcements register users, reports
// accumulate. Each frame is decoded whole under the Boolean ingest
// contract before any of it applies, so a malformed or out-of-range
// message fails its frame with nothing of that frame applied. It is the
// reader-side counterpart of BatchReporter for deployments that move
// reports through files, pipes or message queues rather than the live
// rtf-serve TCP service.
func (s *Server) IngestFrom(r io.Reader) error {
	dec := wire.NewDecoder(r)
	c := wire.BoolIngest(s.d)
	c.Reads = 0 // an ingest stream: a query fails it
	for {
		f, err := dec.NextFrame(&c)
		if errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
		for _, rec := range f.Recs {
			if rec.Bit == 0 {
				err = s.Register(int(rec.Order))
			} else {
				err = s.Ingest(Report{User: rec.User, Order: int(rec.Order), J: int(rec.J), Bit: rec.Bit})
			}
			if err != nil {
				return err
			}
		}
	}
}
