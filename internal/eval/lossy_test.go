package eval

import (
	"math"
	"testing"

	"rtf/internal/rng"
)

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
