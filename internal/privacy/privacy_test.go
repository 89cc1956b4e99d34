package privacy

import (
	"math"
	"strings"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/probmath"
	"rtf/internal/sparse"
)

func TestRandomizerRatioWithinBudget(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8, 32, 128} {
		for _, eps := range []float64{0.2, 1.0} {
			p, err := probmath.NewFutureRand(k, eps)
			if err != nil {
				t.Fatal(err)
			}
			r := RandomizerRatio(p)
			if !r.Satisfied() {
				t.Errorf("k=%d eps=%v: realized %v exceeds budget", k, eps, r.EpsRealized)
			}
			if r.EpsRealized <= 0 {
				t.Errorf("k=%d: non-positive realized ratio", k)
			}
		}
	}
}

func TestStreamEnumerator(t *testing.T) {
	// d=4, k=1: streams with at most one change: 0000, 1111, 0111, 0011,
	// 0001 — the change can be at any of 4 times, plus the all-zero
	// stream: 5 streams.
	streams := StreamEnumerator(4, 1)
	if len(streams) != 5 {
		t.Fatalf("d=4 k=1: %d streams, want 5", len(streams))
	}
	for _, st := range streams {
		if sparse.NumChanges(st) > 1 {
			t.Errorf("stream %v has too many changes", st)
		}
	}
	// k=d: all 2^d streams qualify.
	if got := len(StreamEnumerator(4, 4)); got != 16 {
		t.Errorf("d=4 k=4: %d streams, want 16", got)
	}
}

func TestClientDistributionsSumToOne(t *testing.T) {
	p, err := probmath.NewFutureRand(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range StreamEnumerator(4, 2) {
		dist, err := ClientDist(st, 4, p)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, pr := range dist {
			if pr < 0 {
				t.Fatalf("negative probability for stream %v", st)
			}
			sum += pr
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("stream %v: distribution sums to %v", st, sum)
		}
	}
}

// TestClientDistRefusesUnclippedStream feeds ClientDist a stream with
// k+1 changes, which has k+1 non-zero partial sums at order 0: it has no
// law under a randomizer for k, and ClientDist says so instead of
// panicking, as do the ratio checks that call it.
func TestClientDistRefusesUnclippedStream(t *testing.T) {
	const d, k = 8, 2
	p, err := probmath.NewFutureRand(k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	st := []uint8{1, 0, 1, 1, 1, 1, 1, 1} // changes at 1, 2 and 3
	if _, err := ClientDist(st, d, p); err == nil || !strings.Contains(err.Error(), "more than k=2") {
		t.Errorf("ClientDist on %d changes at k=%d: err %v", k+1, k, err)
	}
	if _, err := worstRatio([][]uint8{make([]uint8, d), st}, d, p); err == nil {
		t.Error("worstRatio passed over the unclipped stream")
	}
}

// TestClientRatioSmallCases verifies Theorem 4.5 exactly: the end-to-end
// client is ε-DP. Over streams with k+1 and k+2 changes the clip maps
// every stream onto one with at most k, and every such stream onto
// itself, so the realized ε is exactly the k-change value.
func TestClientRatioSmallCases(t *testing.T) {
	cases := []struct {
		d, k int
		eps  float64
	}{
		{2, 1, 1.0},
		{4, 1, 0.5},
		{4, 2, 1.0},
		{8, 2, 1.0},
		{8, 3, 0.3},
	}
	for _, c := range cases {
		r, err := ClientRatio(c.d, c.k, c.k, c.eps)
		if err != nil {
			t.Fatalf("d=%d k=%d: %v", c.d, c.k, err)
		}
		if !r.Satisfied() {
			t.Errorf("d=%d k=%d eps=%v: realized %v exceeds budget", c.d, c.k, c.eps, r.EpsRealized)
		}
		if r.EpsRealized <= 0 {
			t.Errorf("d=%d k=%d: zero realized ratio suspicious", c.d, c.k)
		}
		for changes := c.k + 1; changes <= min(c.k+2, c.d); changes++ {
			past, err := ClientRatio(c.d, changes, c.k, c.eps)
			if err != nil {
				t.Fatalf("d=%d k=%d, %d changes: %v", c.d, c.k, changes, err)
			}
			if past != r {
				t.Errorf("d=%d k=%d, %d changes: %+v, want the k-change %+v", c.d, c.k, changes, past, r)
			}
		}
	}
}

func TestClientRatioRejectsLargeD(t *testing.T) {
	if _, err := ClientRatio(16, 2, 2, 1.0); err == nil {
		t.Error("d=16 accepted for exhaustive enumeration")
	}
	if _, err := ClientRatio(6, 2, 2, 1.0); err == nil {
		t.Error("non-power-of-two d accepted")
	}
	if _, err := ClientRatio(4, 0, 0, 1.0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestOnlineOfflineTVIsZero(t *testing.T) {
	// Section 5.3's equivalence is exact: the online pre-computed outputs
	// on a full-support input have exactly the offline R̃ distribution.
	for _, k := range []int{1, 2, 5, 10, 16} {
		p, err := probmath.NewFutureRand(k, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if tv := OnlineOfflineTV(p); tv > 1e-12 {
			t.Errorf("k=%d: online/offline TV distance %v", k, tv)
		}
	}
}

func TestOnlineOfflineTVPanicsLargeK(t *testing.T) {
	p, err := probmath.NewFutureRand(32, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("k=32 did not panic")
		}
	}()
	OnlineOfflineTV(p)
}

// TestDomainClientRatioWithinBudget runs the exact check of the shipped
// domain client under both encodings — an exact domain of 3 items, and
// a loloha catalogue of 6 items hashed to 2 buckets — at d = 8: the
// realized ε is within budget for k ≤ 2. Catalogue streams with k + 1
// and k + 2 changes give some target row an indicator stream past k,
// which the Boolean client clips onto one with at most k changes, so
// the realized ε stays the k-change value.
func TestDomainClientRatioWithinBudget(t *testing.T) {
	const d, eps = 8, 1.0
	for _, enc := range []hh.DomainEncoding{hh.ExactEncoding(3), hh.LolohaEncoding(6, 2, 1)} {
		for k := 1; k <= 2; k++ {
			r, err := DomainClientRatio(d, k, k, eps, enc)
			if err != nil {
				t.Fatalf("%s k=%d: %v", enc.Name, k, err)
			}
			if !r.Satisfied() {
				t.Errorf("%s k=%d: realized ε %v exceeds budget %v", enc.Name, k, r.EpsRealized, r.EpsBudget)
			}
			t.Logf("%s k=%d: realized ε %.6f", enc.Name, k, r.EpsRealized)
			if r.EpsRealized <= 0 {
				t.Errorf("%s k=%d: non-positive realized ratio %v", enc.Name, k, r.EpsRealized)
			}
			for changes := k + 1; changes <= k+2; changes++ {
				past, err := DomainClientRatio(d, changes, k, eps, enc)
				if err != nil {
					t.Fatalf("%s k=%d, %d changes: %v", enc.Name, k, changes, err)
				}
				if past != r {
					t.Errorf("%s k=%d, %d changes: %+v, want the k-change %+v", enc.Name, k, changes, past, r)
				}
			}
		}
	}
}
