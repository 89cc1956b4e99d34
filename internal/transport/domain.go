package transport

import (
	"fmt"

	"rtf/internal/hh"
	"rtf/internal/wire"
)

// This file answers the item-scoped reads of domain-valued tracking (the
// richer-domain reduction) from a live item reader, under either
// encoding. The frames, their validation and the domain caps are the
// byte format's (internal/wire).

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
func AnswerDomainQueryInto(items hh.Items, msg wire.Msg, a *wire.DomainAnswerFrame, sc *TopKScratch) (cached bool, err error) {
	a.Kind, a.Item, a.L, a.R, a.K = msg.Kind, int(msg.Item), msg.L, msg.R, int(msg.K)
	a.Items, a.Values = a.Items[:0], a.Values[:0]
	switch msg.Kind {
	case wire.QueryPointItem:
		var v float64
		v, cached = items.EstimateItemAtCached(int(msg.Item), msg.L)
		a.Values = append(a.Values, v)
	case wire.QuerySeriesItem:
		a.Values = append(a.Values, items.EstimateItemSeries(int(msg.Item))...)
	case wire.QueryTopK:
		sc.top, cached = items.AppendTopK(sc.top[:0], msg.L, int(msg.K))
		for _, ic := range sc.top {
			a.Items = append(a.Items, ic.Item)
			a.Values = append(a.Values, ic.Count)
		}
	default:
		return false, fmt.Errorf("transport: unknown domain query kind %d", byte(msg.Kind))
	}
	return cached, nil
}

// TopKScratch is the reusable selection buffer for the Into answer
// paths. It lives outside DomainAnswerFrame so frames stay plain
// values whose equality means payload equality; a serve loop holds one
// scratch per connection alongside its reusable frame.
type TopKScratch struct {
	top []hh.ItemCount
}
