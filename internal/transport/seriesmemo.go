package transport

import (
	"sync"

	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// This file is the Boolean state's read cache. Algorithm 2's
// output is a fixed linear function of the interval counters, so
// between two runs the whole answer â[1..d] is one vector: Series,
// Window and warm Point reads are served from one prefix series stamped
// with the accumulator's version, and encoded straight from it.
//
// A fill loads Version() first, folds the raw row under the read locks
// (FoldInto: plain integer sums) and runs the prefix recurrence after
// they are released (Sharded.PrefixSeries). Exactness is the argument
// of internal/hh's memo (hh/memo.go) unchanged: the stamp is loaded
// before the fold's locks, so an entry can be stamped older than its
// content but never newer, and a lookup that finds the stamp unchanged
// serves exactly the cut a fresh read would. Every entry of the series
// equals Sharded.EstimateAt at its period bit for bit (the recurrence
// only reorders the operands of one commutative float addition), so a
// Point hit is the Point a miss computes. A cold Point keeps its
// O(log d) cover and does not fill; a Change reads its own direct cover
// and never comes here.

// seriesMemo is one version-stamped â[1..d] and the fold row it is
// computed from, both memo-owned and allocated on the first fill (a
// nil series is an empty memo).
// Guarded by mu, which is held while an answer is encoded from series
// and released before it is written (Encoder.EncodeAnswerUnlocking).
type seriesMemo struct {
	mu     sync.Mutex
	stamp  uint64
	row    []int64   // one full raw row: the fold's target
	series []float64 // â[1..d] at stamp
}

// answer writes the answer to a Point, Series or Window query from acc
// through the memo, and reports whether the memo was warm.
func (c *seriesMemo) answer(acc *protocol.Sharded, m wire.Msg, e *wire.Encoder) (hit bool, err error) {
	a := wire.AnswerFrame{Kind: m.Kind, L: m.L, R: m.R}
	c.mu.Lock()
	v := acc.Version()
	hit = c.series != nil && c.stamp == v
	if !hit && m.Kind == wire.QueryPoint {
		c.mu.Unlock()
		a.Values = []float64{acc.EstimateAt(m.L)}
		return false, e.EncodeAnswer(a)
	}
	if !hit {
		c.fill(acc, v)
	}
	switch m.Kind {
	case wire.QueryPoint:
		a.Values = c.series[m.L-1 : m.L]
	case wire.QueryWindow:
		a.Values = c.series[m.L-1 : m.R]
	default:
		a.Values = c.series
	}
	return hit, e.EncodeAnswerUnlocking(a, &c.mu)
}

// fill recomputes the series from acc and stamps it with v, which the
// caller loaded before calling. The caller holds mu.
func (c *seriesMemo) fill(acc *protocol.Sharded, v uint64) {
	d := acc.D()
	if c.series == nil {
		c.row = make([]int64, protocol.RawStride(d))
		c.series = make([]float64, d)
	}
	acc.FoldInto(nil, c.row)
	_, _, sums := protocol.SplitRaw(d, c.row)
	acc.PrefixSeries(sums, c.series)
	c.stamp = v
}
