package eval

import (
	"errors"
	"fmt"
	"sync"

	"rtf/internal/rng"
	"rtf/internal/wire"
)

// The in-process message path of experiment E15: clients Send wire
// messages through a LossyLink into a Collector, and the experiment
// drains them into a serial server.

// Collector is a concurrency-safe fan-in point: any number of client
// goroutines Send messages; one consumer drains them in arrival order.
type Collector struct {
	mu     sync.Mutex
	closed bool
	msgs   []wire.Msg
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Send appends a message. It returns an error after Close.
func (c *Collector) Send(m wire.Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("eval: collector closed")
	}
	c.msgs = append(c.msgs, m)
	return nil
}

// Drain invokes fn on every collected message and clears the buffer.
func (c *Collector) Drain(fn func(wire.Msg)) {
	c.mu.Lock()
	msgs := c.msgs
	c.msgs = nil
	c.mu.Unlock()
	for _, m := range msgs {
		fn(m)
	}
}

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
