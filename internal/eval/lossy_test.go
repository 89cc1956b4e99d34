package eval

import (
	"math"
	"sync"
	"testing"

	"rtf/internal/rng"
	"rtf/internal/wire"
)

func TestCollectorConcurrentSend(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	const senders, each = 20, 500
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.Send(wire.Hello(s, i%5)); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if c.Len() != senders*each {
		t.Fatalf("collected %d, want %d", c.Len(), senders*each)
	}
	n := 0
	c.Drain(func(wire.Msg) { n++ })
	if n != senders*each {
		t.Fatalf("drained %d, want %d", n, senders*each)
	}
	if c.Len() != 0 {
		t.Error("collector not empty after drain")
	}
}

func TestCollectorClose(t *testing.T) {
	c := NewCollector()
	if err := c.Send(wire.Hello(1, 1)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Send(wire.Hello(2, 2)); err == nil {
		t.Error("send after close accepted")
	}
	if c.Len() != 1 {
		t.Error("message lost on close")
	}
}

func TestLossyLinkRate(t *testing.T) {
	g := rng.New(1, 2)
	l := NewLossyLink(0.3, g)
	const n = 100000
	for i := 0; i < n; i++ {
		l.Deliver()
	}
	delivered, dropped := l.Stats()
	if delivered+dropped != n {
		t.Fatalf("counts %d+%d != %d", delivered, dropped, n)
	}
	got := float64(dropped) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("drop rate %v, want 0.3", got)
	}
	// Degenerate rates.
	l0 := NewLossyLink(0, g)
	l1 := NewLossyLink(1, g)
	for i := 0; i < 100; i++ {
		if !l0.Deliver() {
			t.Fatal("dropProb=0 dropped")
		}
		if l1.Deliver() {
			t.Fatal("dropProb=1 delivered")
		}
	}
}

func TestLossyLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid drop prob did not panic")
		}
	}()
	NewLossyLink(1.5, rng.New(1, 1))
}

// Close stops accepting messages.
func (c *Collector) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
}

// Len returns the number of collected messages.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}
