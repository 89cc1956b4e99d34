package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
)

// This file is the transport substrate of domain-valued tracking (the
// richer-domain reduction): item-tagged ingest validation, the
// variable-length answer frame for item-scoped queries. The exact and
// hashed domain Modes (mode.go) are built from these; the raw-sums
// frame a cluster gateway ships between nodes is in sums.go.
// The scalar encodings of MsgDomainHello, MsgDomainReport,
// MsgDomainQuery and MsgDomainSums live in transport.go beside the
// Boolean ones, so domain messages batch, journal and replay through
// the ordinary Encoder/Decoder paths.

// MaxDomainM bounds the domain size a frame may declare, so a corrupt
// or adversarial frame cannot force a huge per-item allocation. It is
// the row cap of the domain accumulator — the exact encoding's domain
// size and a hashed encoding's bucket count — declared once in
// internal/hh and aliased here and in ldp.MaxDomainSize.
const MaxDomainM = hh.MaxDomainRows

// MaxDomainSums bounds the total counter count (m × intervals) a
// domain sums frame may declare across all items.
const MaxDomainSums = 1 << 24

// ValidateDomainIngest range-checks one domain hello or report message
// against a domain server's parameters (horizon d, domain size m): the
// exact-domain ingest contract's refusal (Ingest.explain), nil for a
// message it accepts.
func ValidateDomainIngest(d, m int, msg Msg) error {
	return (&Ingest{Hello: MsgDomainHello, Report: MsgDomainReport, Rows: m, D: d, LogD: dyadic.Log2(d)}).explain(&msg)
}

// ValidateDomainQuery range-checks an item-scoped query frame against a
// domain server's parameters without touching any accumulator — the
// validate-only half of AnswerDomainQuery, run over whole batches
// before anything is applied.
func ValidateDomainQuery(d, m int, msg Msg) error {
	if msg.Type != MsgDomainQuery {
		return fmt.Errorf("transport: message type %d is not a domain query", msg.Type)
	}
	switch msg.Kind {
	case QueryPointItem:
		if msg.Item < 0 || msg.Item >= m {
			return fmt.Errorf("transport: point-item query item %d out of range [0..%d)", msg.Item, m)
		}
		if msg.L < 1 || msg.L > d {
			return fmt.Errorf("transport: point-item query time %d out of range [1..%d]", msg.L, d)
		}
	case QuerySeriesItem:
		if msg.Item < 0 || msg.Item >= m {
			return fmt.Errorf("transport: series-item query item %d out of range [0..%d)", msg.Item, m)
		}
	case QueryTopK:
		if msg.L < 1 || msg.L > d {
			return fmt.Errorf("transport: top-k query time %d out of range [1..%d]", msg.L, d)
		}
		if msg.K < 0 {
			return fmt.Errorf("transport: top-k query with negative k %d", msg.K)
		}
	default:
		return fmt.Errorf("transport: unknown domain query kind %d", byte(msg.Kind))
	}
	return nil
}

// AnswerDomainQuery computes the answer to an item-scoped query frame
// from the live domain server. Estimates are bit-for-bit identical to a
// serial server fed the same reports: every answer is a fixed function
// of the per-item point estimates, which sum the same dyadic
// decomposition in the same order everywhere. Returned slices are owned
// by the caller.
func AnswerDomainQuery(ds *hh.DomainServer, msg Msg) (DomainAnswerFrame, error) {
	var a DomainAnswerFrame
	var sc TopKScratch
	if _, err := AnswerDomainQueryInto(ds, msg, &a, &sc); err != nil {
		return DomainAnswerFrame{}, err
	}
	return a, nil
}

// AnswerDomainQueryInto is AnswerDomainQuery answering into a reusable
// frame: a's Items/Values buffers and sc's selection scratch are
// truncated and re-appended, so a serve loop recycling one frame and
// scratch per connection answers warm top-k and point-item queries
// without allocating. It reports whether the answer was served from the
// server's version-keyed memo (top-k only; the other shapes read
// counters directly). The frame's slices remain owned by the caller and
// never alias server-internal storage.
func AnswerDomainQueryInto(ds *hh.DomainServer, msg Msg, a *DomainAnswerFrame, sc *TopKScratch) (cached bool, err error) {
	if err := ValidateDomainQuery(ds.D(), ds.M(), msg); err != nil {
		return false, err
	}
	a.Kind, a.Item, a.L, a.R, a.K = msg.Kind, msg.Item, msg.L, msg.R, msg.K
	a.Items, a.Values = a.Items[:0], a.Values[:0]
	switch msg.Kind {
	case QueryPointItem:
		a.Values = append(a.Values, ds.EstimateItemAt(msg.Item, msg.L))
	case QuerySeriesItem:
		a.Values = append(a.Values, ds.EstimateItemSeries(msg.Item)...)
	case QueryTopK:
		sc.top, cached = ds.AppendTopK(sc.top[:0], msg.L, msg.K)
		for _, ic := range sc.top {
			a.Items = append(a.Items, ic.Item)
			a.Values = append(a.Values, ic.Count)
		}
	}
	return cached, nil
}

// DomainAnswerFrame is the server's response to an item-scoped query:
// the echoed query shape plus the answer payload — values only for
// point-item and series-item queries, parallel (item, value) lists for
// top-k. It is variable-length, so it travels outside Msg via
// EncodeDomainAnswer and ReadDomainAnswer.
type DomainAnswerFrame struct {
	Kind          QueryKind
	Item, L, R, K int
	Items         []int
	Values        []float64
}

// TopKScratch is the reusable selection buffer for the Into answer
// paths. It lives outside DomainAnswerFrame so frames stay plain
// values whose equality means payload equality; a serve loop holds one
// scratch per connection alongside its reusable frame.
type TopKScratch struct {
	top []hh.ItemCount
}

// EncodeDomainAnswer writes one MsgDomainAnswer frame.
func (e *Encoder) EncodeDomainAnswer(a DomainAnswerFrame) error {
	if len(a.Values) > MaxAnswerLen || len(a.Items) > MaxAnswerLen {
		return fmt.Errorf("transport: domain answer of %d items / %d values exceeds limit %d", len(a.Items), len(a.Values), MaxAnswerLen)
	}
	if a.Item < 0 || a.L < 0 || a.R < 0 || a.K < 0 {
		return fmt.Errorf("transport: negative domain answer field (item=%d l=%d r=%d k=%d)", a.Item, a.L, a.R, a.K)
	}
	for _, it := range a.Items {
		if it < 0 {
			return fmt.Errorf("transport: negative item %d in domain answer", it)
		}
	}
	b := e.scratch[:0]
	b = append(b, byte(MsgDomainAnswer), queryWireVersion, byte(a.Kind))
	b = binary.AppendUvarint(b, uint64(a.Item))
	b = binary.AppendUvarint(b, uint64(a.L))
	b = binary.AppendUvarint(b, uint64(a.R))
	b = binary.AppendUvarint(b, uint64(a.K))
	b = binary.AppendUvarint(b, uint64(len(a.Items)))
	for _, it := range a.Items {
		b = binary.AppendUvarint(b, uint64(it))
	}
	b = binary.AppendUvarint(b, uint64(len(a.Values)))
	for _, v := range a.Values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	e.scratch = b[:0] // keep the grown buffer for the next frame
	n, err := e.w.Write(b)
	e.n += int64(n)
	return err
}

// ReadDomainAnswer decodes one MsgDomainAnswer frame. It must be called
// when a domain answer is the next frame on the stream — after sending
// a domain query — and fails on any other frame type. Declared lengths
// are bounded before allocation.
func (d *Decoder) ReadDomainAnswer() (DomainAnswerFrame, error) {
	if d.next < len(d.pending) {
		return DomainAnswerFrame{}, errors.New("transport: domain answer frame inside batch")
	}
	tb, err := d.r.ReadByte()
	if err != nil {
		return DomainAnswerFrame{}, err // io.EOF passes through
	}
	if MsgType(tb) != MsgDomainAnswer {
		return DomainAnswerFrame{}, fmt.Errorf("transport: expected domain answer frame, got message type %d", tb)
	}
	ver, err := d.r.ReadByte()
	if err != nil {
		return DomainAnswerFrame{}, truncated(err)
	}
	if ver != queryWireVersion {
		return DomainAnswerFrame{}, fmt.Errorf("transport: unsupported domain answer version %d", ver)
	}
	kind, err := d.r.ReadByte()
	if err != nil {
		return DomainAnswerFrame{}, truncated(err)
	}
	a := DomainAnswerFrame{Kind: QueryKind(kind)}
	var fields [4]uint64
	for i, name := range []string{"item", "l", "r", "k"} {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return DomainAnswerFrame{}, truncated(err)
		}
		if v > math.MaxInt {
			return DomainAnswerFrame{}, fmt.Errorf("transport: domain answer %s overflows", name)
		}
		fields[i] = v
	}
	a.Item, a.L, a.R, a.K = int(fields[0]), int(fields[1]), int(fields[2]), int(fields[3])
	nItems, err := binary.ReadUvarint(d.r)
	if err != nil {
		return DomainAnswerFrame{}, truncated(err)
	}
	if nItems > MaxAnswerLen {
		return DomainAnswerFrame{}, fmt.Errorf("transport: domain answer item count %d exceeds limit %d", nItems, MaxAnswerLen)
	}
	if nItems > 0 {
		a.Items = make([]int, nItems)
	}
	for i := range a.Items {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return DomainAnswerFrame{}, truncated(err)
		}
		if v > math.MaxInt {
			return DomainAnswerFrame{}, fmt.Errorf("transport: domain answer item overflows")
		}
		a.Items[i] = int(v)
	}
	nValues, err := binary.ReadUvarint(d.r)
	if err != nil {
		return DomainAnswerFrame{}, truncated(err)
	}
	if nValues > MaxAnswerLen {
		return DomainAnswerFrame{}, fmt.Errorf("transport: domain answer length %d exceeds limit %d", nValues, MaxAnswerLen)
	}
	if nValues > 0 {
		a.Values = make([]float64, nValues)
	}
	var raw [8]byte
	for i := range a.Values {
		if _, err := io.ReadFull(d.r, raw[:]); err != nil {
			return DomainAnswerFrame{}, truncated(err)
		}
		a.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
	return a, nil
}
