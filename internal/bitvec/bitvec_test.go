package bitvec

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rtf/internal/rng"
)

func TestNewIsAllPlus(t *testing.T) {
	for _, k := range []int{0, 1, 63, 64, 65, 130} {
		v := New(k)
		if v.Len() != k {
			t.Fatalf("Len = %d, want %d", v.Len(), k)
		}
		for i := 0; i < k; i++ {
			if v.At(i) != 1 {
				t.Fatalf("New(%d).At(%d) = %d, want +1", k, i, v.At(i))
			}
		}
		if v.WeightMinus() != 0 {
			t.Fatalf("New(%d).WeightMinus = %d", k, v.WeightMinus())
		}
	}
}

func TestFromSignsRoundTrip(t *testing.T) {
	f := func(raw []bool) bool {
		s := make([]int8, len(raw))
		for i, b := range raw {
			if b {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		got := FromSigns(s).Signs()
		if len(got) != len(s) {
			return false
		}
		for i := range s {
			if got[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromSignsPanicsOnBadEntry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSigns with 0 entry did not panic")
		}
	}()
	FromSigns([]int8{1, 0, -1})
}

func TestSetFlipAt(t *testing.T) {
	v := New(70)
	v.Set(3, -1)
	v.Set(69, -1)
	if v.At(3) != -1 || v.At(69) != -1 || v.At(4) != 1 {
		t.Fatal("Set/At mismatch")
	}
	v.Flip(3)
	if v.At(3) != 1 {
		t.Fatal("Flip did not restore +1")
	}
	v.Flip(0)
	if v.At(0) != -1 {
		t.Fatal("Flip did not set -1")
	}
	if v.WeightMinus() != 2 {
		t.Fatalf("WeightMinus = %d, want 2", v.WeightMinus())
	}
}

func TestHammingMatchesNaive(t *testing.T) {
	g := rng.New(1, 2)
	for trial := 0; trial < 200; trial++ {
		k := 1 + g.IntN(150)
		a := Uniform(g, k)
		b := Uniform(g, k)
		want := 0
		for i := 0; i < k; i++ {
			if a.At(i) != b.At(i) {
				want++
			}
		}
		if got := a.Hamming(b); got != want {
			t.Fatalf("Hamming = %d, want %d (k=%d)", got, want, k)
		}
		if a.Hamming(b) != b.Hamming(a) {
			t.Fatal("Hamming not symmetric")
		}
		if a.Hamming(a) != 0 {
			t.Fatal("Hamming(a,a) != 0")
		}
	}
}

func TestHammingTriangle(t *testing.T) {
	g := rng.New(3, 4)
	for trial := 0; trial < 200; trial++ {
		k := 1 + g.IntN(100)
		a, b, c := Uniform(g, k), Uniform(g, k), Uniform(g, k)
		if a.Hamming(c) > a.Hamming(b)+b.Hamming(c) {
			t.Fatal("triangle inequality violated")
		}
	}
}

func TestHammingLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Hamming with mismatched lengths did not panic")
		}
	}()
	New(3).Hamming(New(4))
}

func TestWeightMinusIsDistanceToOnes(t *testing.T) {
	g := rng.New(5, 6)
	for trial := 0; trial < 100; trial++ {
		k := 1 + g.IntN(200)
		v := Uniform(g, k)
		if v.WeightMinus() != v.Hamming(Ones(k)) {
			t.Fatal("WeightMinus != Hamming to ones")
		}
	}
}

func TestFlipEachExtremes(t *testing.T) {
	g := rng.New(7, 8)
	v := Uniform(g, 100)
	same := v.Clone().FlipEach(g, 0)
	if !same.Equal(v) {
		t.Error("FlipEach(p=0) changed the vector")
	}
	all := v.Clone()
	if got := all.FlipEach(g, 1); !got.Equal(all) {
		t.Error("FlipEach did not return its (mutated) receiver")
	}
	if all.Hamming(v) != 100 {
		t.Errorf("FlipEach(p=1) flipped %d of 100", all.Hamming(v))
	}
}

// TestTimes checks the coordinatewise product against At, including the
// identity (1^k) and the length check.
func TestTimes(t *testing.T) {
	g := rng.New(7, 9)
	for _, k := range []int{1, 63, 64, 65, 200} {
		v, u := Uniform(g, k), Uniform(g, k)
		prod := v.Clone().Times(u)
		for i := 0; i < k; i++ {
			if prod.At(i) != v.At(i)*u.At(i) {
				t.Fatalf("k=%d coordinate %d: %d, want %d·%d", k, i, prod.At(i), v.At(i), u.At(i))
			}
		}
		if !v.Clone().Times(Ones(k)).Equal(v) {
			t.Fatalf("k=%d: multiplying by 1^k changed the vector", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Times accepted mismatched lengths")
		}
	}()
	Ones(3).Times(Ones(4))
}

func TestFlipEachMeanDistance(t *testing.T) {
	g := rng.New(9, 10)
	const k, trials = 200, 5000
	p := 0.3
	v := Uniform(g, k)
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(v.Clone().FlipEach(g, p).Hamming(v))
	}
	mean := sum / trials
	want := float64(k) * p
	sd := math.Sqrt(float64(k)*p*(1-p)) / math.Sqrt(trials)
	if math.Abs(mean-want) > 6*sd {
		t.Errorf("FlipEach mean distance %v, want %v", mean, want)
	}
}

func TestFlipSubset(t *testing.T) {
	g := rng.New(11, 12)
	v := Uniform(g, 90)
	idx := []int{0, 17, 63, 64, 89}
	u := v.Clone().FlipSubset(idx)
	if u.Hamming(v) != len(idx) {
		t.Fatalf("FlipSubset distance %d, want %d", u.Hamming(v), len(idx))
	}
	for _, i := range idx {
		if u.At(i) == v.At(i) {
			t.Fatalf("coordinate %d not flipped", i)
		}
	}
}

func TestIndexBijection(t *testing.T) {
	f := func(kRaw uint8, xRaw uint32) bool {
		k := int(kRaw%20) + 1
		x := int(xRaw) % (1 << uint(k))
		v := FromIndex(k, x)
		return v.Index() == x && v.Len() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexPanicsOnLargeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Index with k>62 did not panic")
		}
	}()
	New(63).Index()
}

func TestUniformMaskTail(t *testing.T) {
	g := rng.New(13, 14)
	// k not a multiple of 64: the tail bits must never leak into weights.
	for trial := 0; trial < 1000; trial++ {
		v := Uniform(g, 67)
		if w := v.WeightMinus(); w > 67 {
			t.Fatalf("weight %d exceeds length 67", w)
		}
	}
}

func TestUniformIsBalanced(t *testing.T) {
	g := rng.New(15, 16)
	const k, trials = 128, 4000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(Uniform(g, k).WeightMinus())
	}
	mean := sum / trials
	if math.Abs(mean-k/2) > 6*math.Sqrt(float64(k)/4/trials)*math.Sqrt(float64(k)) {
		// loose bound: sd of mean = sqrt(k/4)/sqrt(trials)
	}
	sd := math.Sqrt(float64(k)/4) / math.Sqrt(trials)
	if math.Abs(mean-k/2) > 6*sd {
		t.Errorf("Uniform mean weight %v, want %v", mean, k/2)
	}
}

func TestCloneIndependent(t *testing.T) {
	v := New(10)
	c := v.Clone()
	c.Flip(3)
	if v.At(3) != 1 {
		t.Error("Clone shares storage with original")
	}
	if !v.Equal(New(10)) {
		t.Error("original changed")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(3).Equal(New(4)) {
		t.Error("vectors of different lengths reported equal")
	}
}

func TestString(t *testing.T) {
	v := FromSigns([]int8{1, -1, -1, 1})
	if got := v.String(); got != "+--+" {
		t.Errorf("String = %q, want %q", got, "+--+")
	}
	if !strings.HasPrefix(New(3).String(), "+++") {
		t.Error("New(3).String() not all '+'")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(5)
	for name, f := range map[string]func(){
		"At(-1)":    func() { v.At(-1) },
		"At(5)":     func() { v.At(5) },
		"Set(5)":    func() { v.Set(5, 1) },
		"Set bad":   func() { v.Set(0, 2) },
		"Flip(-1)":  func() { v.Flip(-1) },
		"New(-1)":   func() { New(-1) },
		"FromIndex": func() { FromIndex(3, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
