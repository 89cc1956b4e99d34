package transport

import (
	"io"
	"slices"
	"sync"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// Everything in this file exists for bench/ only; it goes, whole, when
// the benchmark harness is re-pointed at internal/wire and at the served
// ingest path, NextFrame then Store.Apply (ROADMAP item 2.3). Every other
// caller uses internal/wire and the ingest contract directly. The file
// holds:
//
//   - aliases and forwarders for the codec names bench/ reaches through
//     this package. They forward rather than alias a func-typed var so
//     that each inlines into the harness's timed loops;
//   - the Msg view of ingest: Collector.SendBatch, Durable.SendBatch and
//     ValidateIngest, ValidateDomainIngest, ValidateHashedDomainIngest,
//     each of the last three one call of the contract's refusal builder,
//     Ingest.Explain.
//
// Outside bench/, only these call into the file, and the change that
// deletes it re-points or drops them: in the root package's
// bench_test.go, msgViewIngest (BenchmarkIngestDurableWAL/reencode) and
// the SendBatch loops of BenchmarkDomainIngest, BenchmarkAnswerTopK,
// BenchmarkHashedDomainIngest, populateHashedBench and
// populateSeriesBench, each onto NextFrame and Apply; and the
// "SendBatch" case of TestDurableIngestSteadyStateAllocs.

type (
	AnswerFrame       = wire.AnswerFrame
	Decoder           = wire.Decoder
	DomainAnswerFrame = wire.DomainAnswerFrame
	Encoder           = wire.Encoder
	Msg               = wire.Msg
	QueryKind         = wire.QueryKind
)

const (
	QuerySeries = wire.QuerySeries
	QueryTopK   = wire.QueryTopK
)

func DomainHello(user, item, order int) Msg             { return wire.DomainHello(user, item, order) }
func DomainQuery(kind QueryKind, item, l, r, k int) Msg { return wire.DomainQuery(kind, item, l, r, k) }
func DomainSums() Msg                                   { return wire.DomainSums() }
func FromDomainReport(item int, r protocol.Report) Msg  { return wire.FromDomainReport(item, r) }
func FromReport(r protocol.Report) Msg                  { return wire.FromReport(r) }
func HashedDomainHello(user, bucket, order int, seed uint64) Msg {
	return wire.HashedDomainHello(user, bucket, order, seed)
}
func HashedDomainSums(m, g int, seed uint64) Msg { return wire.HashedDomainSums(m, g, seed) }
func Hello(user, order int) Msg                  { return wire.Hello(user, order) }
func NewDecoder(r io.Reader) *Decoder            { return wire.NewDecoder(r) }
func NewEncoder(w io.Writer) *Encoder            { return wire.NewEncoder(w) }
func QueryV2(kind QueryKind, l, r int) Msg       { return wire.QueryV2(kind, l, r) }
func Sums() Msg                                  { return wire.Sums() }

func ValidateIngest(d int, m Msg) error {
	return (&wire.Ingest{Hello: wire.MsgHello, Report: wire.MsgReport, D: d, LogD: dyadic.Log2(d)}).Explain(&m)
}

func ValidateDomainIngest(d, m int, msg Msg) error {
	return (&wire.Ingest{Hello: wire.MsgDomainHello, Report: wire.MsgDomainReport, Rows: m, D: d, LogD: dyadic.Log2(d)}).Explain(&msg)
}

// ValidateHashedDomainIngest also refuses a hello whose epoch hash seed
// is not the server's: a client hashing under a different seed has a
// different item→bucket map.
func ValidateHashedDomainIngest(d int, enc hh.DomainEncoding, msg Msg) error {
	return (&wire.Ingest{Hello: wire.MsgHashedDomainHello, Report: wire.MsgDomainReport, Rows: enc.G, D: d, LogD: dyadic.Log2(d), Seed: enc.Seed}).Explain(&msg)
}

// SendBatch checks each message of ms against the collector's ingest
// contract, converts the run to records and applies it; on a refusal
// nothing is applied. The frame loop decodes straight into records
// instead.
func (c *Collector) SendBatch(shard int, ms []Msg) error { return sendBatch(c, shard, ms, false) }

// SendBatch is Collector.SendBatch through the journal: the run is
// encoded again, journaled, then applied.
func (c *Durable) SendBatch(shard int, ms []Msg) error { return sendBatch(c, shard, ms, true) }

// sendScratch holds the record (and, for a durable store, wire) buffers
// of SendBatch calls in flight.
type sendScratch struct {
	recs []wire.Rec
	wire []byte
}

var sendPool = sync.Pool{New: func() any { return new(sendScratch) }}

// sendBatch is both SendBatch methods: the one contract check per
// message, then the trusted entry. journal asks for the run's canonical
// encoding to be handed to Apply as its wire bytes.
func sendBatch(s Store, shard int, ms []Msg, journal bool) error {
	sc := sendPool.Get().(*sendScratch)
	defer sendPool.Put(sc)
	c := s.Mode().Ingest()
	sc.recs = slices.Grow(sc.recs[:0], len(ms))[:len(ms)]
	for i := range ms {
		if !c.Check(&ms[i], &sc.recs[i]) {
			return c.Explain(&ms[i])
		}
	}
	if !journal {
		return s.Apply(shard, sc.recs, nil)
	}
	var err error
	if sc.wire, err = wire.AppendMsgs(sc.wire[:0], ms); err != nil {
		return err
	}
	return s.Apply(shard, sc.recs, sc.wire)
}
