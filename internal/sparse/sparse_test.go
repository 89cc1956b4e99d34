package sparse

import (
	"fmt"
	"testing"
	"testing/quick"

	"rtf/internal/dyadic"
	"rtf/internal/rng"
)

func TestDerivativePaperExample(t *testing.T) {
	// Definition 3.1 example: st = (0,1,1,0) → X = (0,1,0,−1).
	got := Derivative([]uint8{0, 1, 1, 0})
	want := []int8{0, 1, 0, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Derivative = %v, want %v", got, want)
		}
	}
}

func TestDerivativeIntegrateRoundTrip(t *testing.T) {
	f := func(raw []bool) bool {
		st := make([]uint8, len(raw))
		for i, b := range raw {
			if b {
				st[i] = 1
			}
		}
		got := Integrate(Derivative(st))
		for i := range st {
			if got[i] != st[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDerivativePanicsOnBadValue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Derivative with value 2 did not panic")
		}
	}()
	Derivative([]uint8{0, 2})
}

func TestIntegratePanicsOnInvalidDerivative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Integrate with +1,+1 did not panic")
		}
	}()
	Integrate([]int8{1, 1})
}

func TestNumChanges(t *testing.T) {
	cases := []struct {
		st   []uint8
		want int
	}{
		{[]uint8{0, 0, 0, 0}, 0},
		{[]uint8{1, 1, 1, 1}, 1}, // initial 0→1 counts (st[0]=0 convention)
		{[]uint8{0, 1, 1, 0}, 2},
		{[]uint8{1, 0, 1, 0}, 4},
		{nil, 0},
	}
	for _, c := range cases {
		if got := NumChanges(c.st); got != c.want {
			t.Errorf("NumChanges(%v) = %d, want %d", c.st, got, c.want)
		}
	}
}

func TestNumChangesEqualsDerivativeSupport(t *testing.T) {
	f := func(raw []bool) bool {
		st := make([]uint8, len(raw))
		for i, b := range raw {
			if b {
				st[i] = 1
			}
		}
		nnz := 0
		for _, x := range Derivative(st) {
			if x != 0 {
				nnz++
			}
		}
		return nnz == NumChanges(st)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartialSumPaperExample(t *testing.T) {
	// Example 3.5: X = (0,1,0,−1) from st = (0,1,1,0).
	st := []uint8{0, 1, 1, 0}
	cases := []struct {
		iv   dyadic.Interval
		want int8
	}{
		{dyadic.Interval{Order: 0, Index: 1}, 0},
		{dyadic.Interval{Order: 0, Index: 2}, 1},
		{dyadic.Interval{Order: 0, Index: 3}, 0},
		{dyadic.Interval{Order: 0, Index: 4}, -1},
		{dyadic.Interval{Order: 1, Index: 1}, 1},
		{dyadic.Interval{Order: 1, Index: 2}, -1},
		{dyadic.Interval{Order: 2, Index: 1}, 0},
	}
	for _, c := range cases {
		if got := PartialSum(st, c.iv); got != c.want {
			t.Errorf("S(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestPartialSumMatchesDerivativeSum(t *testing.T) {
	// Observation 3.7: endpoint difference equals the derivative sum.
	g := rng.New(1, 2)
	for trial := 0; trial < 100; trial++ {
		d := 64
		st := make([]uint8, d)
		v := uint8(0)
		for i := range st {
			if g.Bernoulli(0.2) {
				v = 1 - v
			}
			st[i] = v
		}
		x := Derivative(st)
		for _, iv := range dyadic.All(d) {
			var sum int8
			for tt := iv.Start(); tt <= iv.End(); tt++ {
				sum += x[tt-1]
			}
			if got := PartialSum(st, iv); got != sum {
				t.Fatalf("PartialSum(%v) = %d, derivative sum %d", iv, got, sum)
			}
		}
	}
}

func TestPartialSumOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PartialSum beyond stream did not panic")
		}
	}()
	PartialSum([]uint8{0, 1}, dyadic.Interval{Order: 2, Index: 1})
}

func TestPartialSumsAtOrder(t *testing.T) {
	st := []uint8{0, 1, 1, 0, 0, 0, 1, 1}
	got := PartialSumsAtOrder(st, 1)
	want := []int8{1, -1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PartialSumsAtOrder = %v, want %v", got, want)
		}
	}
	if got := PartialSumsAtOrder(st, 3); len(got) != 1 || got[0] != 1 {
		t.Errorf("order-3 sums = %v, want [1]", got)
	}
}

func TestSupportBoundObservation36(t *testing.T) {
	// Observation 3.6: at any order, at most NumChanges partial sums are
	// non-zero.
	g := rng.New(3, 4)
	for trial := 0; trial < 200; trial++ {
		d := 128
		st := make([]uint8, d)
		v := uint8(0)
		for i := range st {
			if g.Bernoulli(0.1) {
				v = 1 - v
			}
			st[i] = v
		}
		k := NumChanges(st)
		for h := 0; h <= dyadic.Log2(d); h++ {
			if s := SupportAtOrder(st, h); s > k {
				t.Fatalf("order %d support %d exceeds changes %d", h, s, k)
			}
		}
	}
}

// Integrate inverts Derivative: st[t] = Σ_{t' ≤ t} X[t'].
// It panics if any prefix sum leaves {0,1}.
func Integrate(x []int8) []uint8 {
	st := make([]uint8, len(x))
	cur := int8(0)
	for i, v := range x {
		cur += v
		if cur != 0 && cur != 1 {
			panic(fmt.Sprintf("sparse: derivative does not integrate to a 0/1 stream at position %d", i))
		}
		st[i] = uint8(cur)
	}
	return st
}
