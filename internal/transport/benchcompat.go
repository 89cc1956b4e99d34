package transport

import (
	"io"

	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// The names below exist for bench/ only, which still reaches the byte
// format through this package; they go when the benchmark harness is
// re-pointed at internal/wire (ROADMAP item 2.3). Every other caller uses
// internal/wire directly. The functions forward rather than alias a
// func-typed var so that each inlines into the harness's timed loops.

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
func ValidateDomainIngest(d, m int, msg Msg) error {
	return wire.ValidateDomainIngest(d, m, msg)
}
func ValidateHashedDomainIngest(d int, enc hh.DomainEncoding, msg Msg) error {
	return wire.ValidateHashedDomainIngest(d, enc, msg)
}
func ValidateIngest(d int, m Msg) error { return wire.ValidateIngest(d, m) }
