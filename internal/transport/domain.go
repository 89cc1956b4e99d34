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
// richer-domain reduction), under either encoding: row-tagged ingest
// validation, item-scoped query validation and answering, and the
// variable-length answer frame. The domain Mode (mode.go) is built from
// these; the raw-sums frame a cluster gateway ships between nodes is in
// sums.go. The hot ingest path is MsgDomainReport for both encodings
// (Item = the client's row); only the hello (MsgHashedDomainHello
// carries the epoch seed) and the gateway's sums request
// (MsgHashedDomainSums carries the full encoding) differ. The scalar
// encodings of the domain messages live in transport.go beside the
// Boolean ones, so they batch, journal and replay through the ordinary
// Encoder/Decoder paths.

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

// ValidateHashedDomainIngest range-checks one hashed hello or
// bucket-tagged report against a hashed server's parameters: the hashed
// ingest contract's refusal (Ingest.explain), nil for a message it
// accepts. A hello must carry the server's exact epoch hash seed: a
// client hashing under a different seed has a different item→bucket
// map, and its reports would silently corrupt the aggregate.
func ValidateHashedDomainIngest(d int, enc hh.DomainEncoding, msg Msg) error {
	return (&Ingest{Hello: MsgHashedDomainHello, Report: MsgDomainReport, Rows: enc.G, D: d, LogD: dyadic.Log2(d), Seed: enc.Seed}).explain(&msg)
}

// ValidateDomainQuery range-checks an item-scoped query frame against a
// domain server's horizon and catalogue without touching any
// accumulator: the read check of the domain Mode, run over whole batches
// before anything is applied. A hashed catalogue (up to 2^24 items)
// exceeds the answer-frame length cap, so there a top-k request larger
// than MaxAnswerLen is refused here instead of failing at encode time;
// an exact domain is smaller than the cap, so any k is answered.
func ValidateDomainQuery(d int, enc hh.DomainEncoding, msg Msg) error {
	if msg.Type != MsgDomainQuery {
		return fmt.Errorf("transport: message type %d is not a domain query", msg.Type)
	}
	m := enc.M
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
		if msg.K > MaxAnswerLen && enc.Hashed() {
			return fmt.Errorf("transport: top-k query k=%d exceeds answer limit %d", msg.K, MaxAnswerLen)
		}
	default:
		return fmt.Errorf("transport: unknown domain query kind %d", byte(msg.Kind))
	}
	return nil
}

// AnswerDomainQueryInto answers an item-scoped query frame, already
// validated (Mode.ValidateRead, in the frame loop), from a live item
// reader into a reusable frame: a's Items/Values buffers and sc's
// selection scratch are truncated and re-appended, so a serve loop
// recycling one frame and scratch per connection answers warm top-k and
// point-item queries without allocating. Estimates are bit-for-bit a
// serial server's: every answer is a fixed function of the per-row
// point estimates, which sum the same dyadic decomposition in the same
// order everywhere. It reports whether the answer was served from the
// reader's version-keyed memo, and refuses only a kind that is not an
// item query. The frame's slices remain owned by the caller and never
// alias server-internal storage.
func AnswerDomainQueryInto(items hh.Items, msg Msg, a *DomainAnswerFrame, sc *TopKScratch) (cached bool, err error) {
	a.Kind, a.Item, a.L, a.R, a.K = msg.Kind, msg.Item, msg.L, msg.R, msg.K
	a.Items, a.Values = a.Items[:0], a.Values[:0]
	switch msg.Kind {
	case QueryPointItem:
		var v float64
		v, cached = items.EstimateItemAtCached(msg.Item, msg.L)
		a.Values = append(a.Values, v)
	case QuerySeriesItem:
		a.Values = append(a.Values, items.EstimateItemSeries(msg.Item)...)
	case QueryTopK:
		sc.top, cached = items.AppendTopK(sc.top[:0], msg.L, msg.K)
		for _, ic := range sc.top {
			a.Items = append(a.Items, ic.Item)
			a.Values = append(a.Values, ic.Count)
		}
	default:
		return false, fmt.Errorf("transport: unknown domain query kind %d", byte(msg.Kind))
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
