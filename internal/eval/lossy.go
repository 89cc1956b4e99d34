package eval

import (
	"fmt"

	"rtf/internal/rng"
)

// LossyLink drops each delivered message independently with probability
// DropProb — the failure-injection half of experiment E15. It is not safe
// for concurrent use; give each sender its own link (sharing the counts
// through Stats if needed).
type LossyLink struct {
	DropProb  float64
	g         *rng.RNG
	delivered int
	dropped   int
}

// NewLossyLink builds a link with the given drop probability in [0, 1].
func NewLossyLink(dropProb float64, g *rng.RNG) *LossyLink {
	if dropProb < 0 || dropProb > 1 {
		panic(fmt.Sprintf("eval: drop probability %v outside [0,1]", dropProb))
	}
	return &LossyLink{DropProb: dropProb, g: g}
}

// Deliver reports whether the next message survives the link.
func (l *LossyLink) Deliver() bool {
	if l.g.Bernoulli(l.DropProb) {
		l.dropped++
		return false
	}
	l.delivered++
	return true
}

// Stats returns (delivered, dropped) counts so far.
func (l *LossyLink) Stats() (delivered, dropped int) { return l.delivered, l.dropped }
