package dyadic

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestIntervalGeometry(t *testing.T) {
	// Example 3.3: all dyadic intervals over [4].
	cases := []struct {
		iv         Interval
		start, end int
	}{
		{Interval{0, 1}, 1, 1},
		{Interval{0, 2}, 2, 2},
		{Interval{0, 3}, 3, 3},
		{Interval{0, 4}, 4, 4},
		{Interval{1, 1}, 1, 2},
		{Interval{1, 2}, 3, 4},
		{Interval{2, 1}, 1, 4},
	}
	for _, c := range cases {
		if c.iv.Start() != c.start || c.iv.End() != c.end {
			t.Errorf("%v: got [%d..%d], want [%d..%d]", c.iv, c.iv.Start(), c.iv.End(), c.start, c.end)
		}
		if c.iv.Len() != c.end-c.start+1 {
			t.Errorf("%v: Len = %d", c.iv, c.iv.Len())
		}
		if !c.iv.Contains(c.start) || !c.iv.Contains(c.end) {
			t.Errorf("%v does not contain its endpoints", c.iv)
		}
		if c.iv.Contains(c.start-1) || c.iv.Contains(c.end+1) {
			t.Errorf("%v contains points outside", c.iv)
		}
	}
}

func TestIsPow2AndLog2(t *testing.T) {
	for _, d := range []int{1, 2, 4, 1024} {
		if !IsPow2(d) {
			t.Errorf("IsPow2(%d) = false", d)
		}
	}
	for _, d := range []int{0, -4, 3, 6, 1023} {
		if IsPow2(d) {
			t.Errorf("IsPow2(%d) = true", d)
		}
	}
	if Log2(1) != 0 || Log2(1024) != 10 {
		t.Error("Log2 wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Log2(3) did not panic")
		}
	}()
	Log2(3)
}

func TestCounts(t *testing.T) {
	if NumOrders(16) != 5 {
		t.Errorf("NumOrders(16) = %d, want 5", NumOrders(16))
	}
	if CountAtOrder(16, 0) != 16 || CountAtOrder(16, 4) != 1 {
		t.Error("CountAtOrder wrong")
	}
	if TotalIntervals(16) != 31 {
		t.Errorf("TotalIntervals(16) = %d, want 31", TotalIntervals(16))
	}
	if got := len(All(16)); got != 31 {
		t.Errorf("len(All(16)) = %d, want 31", got)
	}
}

func TestDecomposeFigure1(t *testing.T) {
	// Figure 1 / Fact 3.8: C(3) over d=4 is {I_{1,1}, I_{0,3}} = {{1,2},{3}}.
	got := Decompose(3, 4)
	want := []Interval{{1, 1}, {0, 3}}
	if len(got) != len(want) {
		t.Fatalf("C(3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C(3) = %v, want %v", got, want)
		}
	}
}

func TestDecomposeProperties(t *testing.T) {
	const d = 1024
	for tt := 1; tt <= d; tt++ {
		c := Decompose(tt, d)
		// Fact 3.8: |C(t)| = popcount(t) <= ceil(log2 t) + 1 and intervals
		// are disjoint, contiguous from 1, with strictly decreasing orders.
		if len(c) != bits.OnesCount(uint(tt)) {
			t.Fatalf("|C(%d)| = %d, want popcount %d", tt, len(c), bits.OnesCount(uint(tt)))
		}
		covered := 0
		prevOrder := 11
		for _, iv := range c {
			if iv.Order >= prevOrder {
				t.Fatalf("C(%d): orders not strictly decreasing: %v", tt, c)
			}
			prevOrder = iv.Order
			if iv.Start() != covered+1 {
				t.Fatalf("C(%d): gap before %v", tt, iv)
			}
			covered = iv.End()
		}
		if covered != tt {
			t.Fatalf("C(%d) covers [1..%d]", tt, covered)
		}
	}
}

func TestDecomposePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"t=0":      func() { Decompose(0, 8) },
		"t>d":      func() { Decompose(9, 8) },
		"bad d":    func() { Decompose(1, 6) },
		"CountBad": func() { CountAtOrder(8, 4) },
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

func TestReportingInterval(t *testing.T) {
	// A client with order h reports at exactly the multiples of 2^h, and
	// the reported interval ends at the current time.
	for h := 0; h <= 6; h++ {
		for tt := 1; tt <= 128; tt++ {
			iv, ok := ReportingInterval(tt, h)
			wantOK := tt%(1<<uint(h)) == 0
			if ok != wantOK {
				t.Fatalf("ReportingInterval(%d,%d) ok=%v, want %v", tt, h, ok, wantOK)
			}
			if ok {
				if iv.End() != tt || iv.Order != h {
					t.Fatalf("ReportingInterval(%d,%d) = %v", tt, h, iv)
				}
			}
		}
	}
}

func TestTreeBijection(t *testing.T) {
	tr := NewTree(64)
	if tr.Size() != 127 {
		t.Fatalf("Size = %d, want 127", tr.Size())
	}
	seen := make(map[int]bool)
	for _, iv := range All(64) {
		f := tr.FlatIndex(iv)
		if f < 0 || f >= tr.Size() {
			t.Fatalf("FlatIndex(%v) = %d out of range", iv, f)
		}
		if seen[f] {
			t.Fatalf("FlatIndex collision at %d", f)
		}
		seen[f] = true
		if back := tr.IntervalAt(f); back != iv {
			t.Fatalf("IntervalAt(FlatIndex(%v)) = %v", iv, back)
		}
	}
}

func TestTreeQuickRoundTrip(t *testing.T) {
	tr := NewTree(256)
	f := func(raw uint16) bool {
		flat := int(raw) % tr.Size()
		return tr.FlatIndex(tr.IntervalAt(flat)) == flat
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTreePanics(t *testing.T) {
	tr := NewTree(8)
	for name, f := range map[string]func(){
		"order":   func() { tr.FlatIndex(Interval{4, 1}) },
		"index0":  func() { tr.FlatIndex(Interval{0, 0}) },
		"indexHi": func() { tr.FlatIndex(Interval{0, 9}) },
		"flatNeg": func() { tr.IntervalAt(-1) },
		"flatHi":  func() { tr.IntervalAt(15) },
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

func TestDecomposeSumRelation(t *testing.T) {
	// Observation 3.9 structural prerequisite: summing interval lengths in
	// C(t) reconstructs t, for arbitrary power-of-two horizons.
	f := func(tRaw uint16, dExp uint8) bool {
		d := 1 << (dExp%12 + 1)
		tt := int(tRaw)%d + 1
		sum := 0
		for _, iv := range Decompose(tt, d) {
			sum += iv.Len()
		}
		return sum == tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	got := Interval{1, 2}.String()
	if got != "I{1,2}=[3..4]" {
		t.Errorf("String = %q", got)
	}
}

func TestDecomposeRangeExamples(t *testing.T) {
	// The paper's example after Fact 3.8: [2..3] decomposes into {2},{3}
	// (two intervals of the same order).
	got := DecomposeRange(2, 3, 4)
	want := []Interval{{0, 2}, {0, 3}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("DecomposeRange(2,3,4) = %v, want %v", got, want)
	}
	// A prefix range must match Decompose up to ordering by position.
	gotPrefix := DecomposeRange(1, 6, 8)
	cover := 0
	for _, iv := range gotPrefix {
		cover += iv.Len()
	}
	if cover != 6 {
		t.Errorf("prefix cover = %d", cover)
	}
	// Whole domain is a single interval.
	if got := DecomposeRange(1, 8, 8); len(got) != 1 || got[0] != (Interval{3, 1}) {
		t.Errorf("DecomposeRange(1,8,8) = %v", got)
	}
}

func TestDecomposeRangeProperties(t *testing.T) {
	const d = 256
	for l := 1; l <= d; l += 3 {
		for r := l; r <= d; r += 5 {
			c := DecomposeRange(l, r, d)
			// Disjoint, contiguous, exact cover.
			pos := l
			for _, iv := range c {
				if iv.Start() != pos {
					t.Fatalf("[%d..%d]: gap before %v in %v", l, r, iv, c)
				}
				pos = iv.End() + 1
			}
			if pos != r+1 {
				t.Fatalf("[%d..%d]: cover ends at %d", l, r, pos-1)
			}
			// Size bound: at most 2·⌈log₂(r−l+1)⌉ + 1 intervals.
			n := r - l + 1
			limit := 1
			for 1<<uint(limit) < n {
				limit++
			}
			if len(c) > 2*limit+1 {
				t.Fatalf("[%d..%d]: %d intervals exceeds bound %d", l, r, len(c), 2*limit+1)
			}
		}
	}
}

func TestDecomposeRangePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"l<1": func() { DecomposeRange(0, 3, 8) },
		"r>d": func() { DecomposeRange(1, 9, 8) },
		"l>r": func() { DecomposeRange(5, 4, 8) },
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

// ReportingInterval returns the dyadic interval of order h that ends
// exactly at time t, i.e. I_{h, t/2^h}, and whether t is a reporting time
// for order h (that is, whether 2^h divides t). This is the interval whose
// partial sum a client with sampled order h reports at time t
// (Algorithm 1, lines 5–8).
func ReportingInterval(t, h int) (Interval, bool) {
	if t < 1 || h < 0 {
		panic("dyadic: ReportingInterval requires t >= 1, h >= 0")
	}
	if t&(1<<uint(h)-1) != 0 {
		return Interval{}, false
	}
	return Interval{Order: h, Index: t >> uint(h)}, true
}

// Len returns the number of time periods covered: 2^h.
func (iv Interval) Len() int { return 1 << uint(iv.Order) }

// Contains reports whether time period t lies in the interval.
func (iv Interval) Contains(t int) bool { return t >= iv.Start() && t <= iv.End() }

// TestAppendCoversIntoStackBuffer checks the Append forms against the
// allocating ones at every prefix and range of d = 64, appended after a
// sentinel so a form that overwrites instead of appending shows, and
// that a MaxCover stack buffer takes every cover without allocating.
func TestAppendCoversIntoStackBuffer(t *testing.T) {
	const d = 64
	sentinel := Interval{Order: -1, Index: -1}
	same := func(name string, got, want []Interval) {
		t.Helper()
		if len(got) != len(want)+1 || got[0] != sentinel {
			t.Fatalf("%s: got %v, want the sentinel then %v", name, got, want)
		}
		for i := range want {
			if got[i+1] != want[i] {
				t.Fatalf("%s: got %v, want the sentinel then %v", name, got, want)
			}
		}
	}
	for r := 1; r <= d; r++ {
		same("AppendDecompose", AppendDecompose([]Interval{sentinel}, r, d), Decompose(r, d))
		for l := 1; l <= r; l++ {
			same("AppendDecomposeRange", AppendDecomposeRange([]Interval{sentinel}, l, r, d), DecomposeRange(l, r, d))
		}
	}
	const big = 1 << 31
	allocs := testing.AllocsPerRun(100, func() {
		var buf [MaxCover]Interval
		if len(AppendDecompose(buf[:0], big-1, big)) != 31 || len(AppendDecomposeRange(buf[:0], 2, big-1, big)) != 60 {
			t.Fatal("unexpected cover length at d = 2^31")
		}
	})
	if allocs != 0 {
		t.Errorf("covers into a MaxCover stack buffer allocate %.1f times, want 0", allocs)
	}
}
