package transport

import (
	"fmt"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
)

// This file is the transport substrate of hashed domain encodings
// (LOLOHA): ingest validation that pins the shared epoch hash seed,
// and item-scoped query answering through the bucket decoder; the
// hashed Mode (mode.go) is built from these.
// The hot ingest path reuses MsgDomainReport verbatim (Item = bucket),
// so batching, journaling and replay go through the ordinary decoder;
// only the hello (MsgHashedDomainHello, seed-carrying) and the
// gateway's sums request (MsgHashedDomainSums, full-encoding-carrying)
// are new frame types.

// ValidateHashedDomainIngest range-checks one hashed hello or
// bucket-tagged report against a hashed server's parameters. A hello
// must carry the server's exact epoch hash seed: a client hashing under
// a different seed has a different item→bucket map, and its reports
// would silently corrupt the aggregate. Plain MsgDomainHello is
// rejected — an exact-encoding client cannot feed a hashed server.
func ValidateHashedDomainIngest(d int, enc hh.DomainEncoding, msg Msg) error {
	return validateHashedDomainIngest(d, enc.G, enc.Seed, dyadic.Log2(d), &msg)
}

// validateHashedDomainIngest is the body of ValidateHashedDomainIngest
// and the hashed contract's error builder (g buckets, epoch seed): it
// returns nil exactly when Ingest.check accepts msg.
func validateHashedDomainIngest(d, g int, seed uint64, maxOrder int, msg *Msg) error {
	switch msg.Type {
	case MsgHashedDomainHello:
		if msg.User < 0 {
			return fmt.Errorf("transport: negative user id %d", msg.User)
		}
		if uint(msg.Item) >= uint(g) {
			return fmt.Errorf("transport: hello bucket %d out of range [0..%d)", msg.Item, g)
		}
		if uint(msg.Order) > uint(maxOrder) {
			return fmt.Errorf("transport: hello order %d out of range [0..%d]", msg.Order, maxOrder)
		}
		if msg.Seed != seed {
			return fmt.Errorf("transport: hello hash seed %d does not match the server's epoch seed", msg.Seed)
		}
	case MsgDomainReport:
		if msg.User < 0 {
			return fmt.Errorf("transport: negative user id %d", msg.User)
		}
		if uint(msg.Item) >= uint(g) {
			return fmt.Errorf("transport: report bucket %d out of range [0..%d)", msg.Item, g)
		}
		if msg.Bit != 1 && msg.Bit != -1 {
			return fmt.Errorf("transport: report bit %d not ±1", msg.Bit)
		}
		if uint(msg.Order) > uint(maxOrder) {
			return fmt.Errorf("transport: report order %d out of range [0..%d]", msg.Order, maxOrder)
		}
		if uint(msg.J-1) >= uint(d>>uint(msg.Order)) {
			return fmt.Errorf("transport: report index %d out of range for order %d", msg.J, msg.Order)
		}
	default:
		return fmt.Errorf("transport: hashed domain collector cannot ingest message type %d", msg.Type)
	}
	return nil
}

// ValidateHashedDomainQuery range-checks an item-scoped query against a
// hashed server's catalogue. The shapes are the exact encoding's, with
// one extra bound: a hashed catalogue (up to 2^24 items) exceeds the
// answer-frame length cap, so a top-k request larger than MaxAnswerLen
// is rejected here instead of failing at encode time.
func ValidateHashedDomainQuery(d, m int, msg Msg) error {
	if err := ValidateDomainQuery(d, m, msg); err != nil {
		return err
	}
	if msg.Kind == QueryTopK && msg.K > MaxAnswerLen {
		return fmt.Errorf("transport: top-k query k=%d exceeds answer limit %d", msg.K, MaxAnswerLen)
	}
	return nil
}

// AnswerHashedDomainQuery computes the answer to an item-scoped query
// from the live hashed server: identical frame shapes to the exact
// encoding's, with estimates going through the bucket decoder. Answers
// are bit-for-bit a serial hashed server's: every decode is a fixed
// function of the per-bucket point estimates, which sum the same dyadic
// decomposition in the same bucket order everywhere.
func AnswerHashedDomainQuery(hs *hh.HashedDomainServer, msg Msg) (DomainAnswerFrame, error) {
	var a DomainAnswerFrame
	var sc TopKScratch
	if _, err := AnswerHashedDomainQueryInto(hs, msg, &a, &sc); err != nil {
		return DomainAnswerFrame{}, err
	}
	return a, nil
}

// AnswerHashedDomainQueryInto is AnswerHashedDomainQuery answering into
// a reusable frame — the hashed counterpart of AnswerDomainQueryInto.
// It reports whether the answer was served from the server's
// version-keyed decode memo (top-k and point-item; a warm top-k skips
// the m-item hash sweep entirely). The frame's slices remain owned by
// the caller and never alias server-internal storage.
func AnswerHashedDomainQueryInto(hs *hh.HashedDomainServer, msg Msg, a *DomainAnswerFrame, sc *TopKScratch) (cached bool, err error) {
	if err := ValidateHashedDomainQuery(hs.D(), hs.M(), msg); err != nil {
		return false, err
	}
	a.Kind, a.Item, a.L, a.R, a.K = msg.Kind, msg.Item, msg.L, msg.R, msg.K
	a.Items, a.Values = a.Items[:0], a.Values[:0]
	switch msg.Kind {
	case QueryPointItem:
		var v float64
		v, cached = hs.EstimateItemAtCached(msg.Item, msg.L)
		a.Values = append(a.Values, v)
	case QuerySeriesItem:
		a.Values = append(a.Values, hs.EstimateItemSeries(msg.Item)...)
	case QueryTopK:
		sc.top, cached = hs.AppendTopK(sc.top[:0], msg.L, msg.K)
		for _, ic := range sc.top {
			a.Items = append(a.Items, ic.Item)
			a.Values = append(a.Values, ic.Count)
		}
	}
	return cached, nil
}
