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
		dist := ClientDist(st, 4, p)
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

func TestClientRatioSmallCases(t *testing.T) {
	// Theorem 4.5: the end-to-end client is ε-DP. Verify exactly.
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
		r, err := ClientRatio(c.d, c.k, c.eps)
		if err != nil {
			t.Fatalf("d=%d k=%d: %v", c.d, c.k, err)
		}
		if !r.Satisfied() {
			t.Errorf("d=%d k=%d eps=%v: realized %v exceeds budget", c.d, c.k, c.eps, r.EpsRealized)
		}
		if r.EpsRealized <= 0 {
			t.Errorf("d=%d k=%d: zero realized ratio suspicious", c.d, c.k)
		}
	}
}

func TestClientRatioRejectsLargeD(t *testing.T) {
	if _, err := ClientRatio(16, 2, 1.0); err == nil {
		t.Error("d=16 accepted for exhaustive enumeration")
	}
	if _, err := ClientRatio(6, 2, 1.0); err == nil {
		t.Error("non-power-of-two d accepted")
	}
	if _, err := ClientRatio(4, 0, 1.0); err == nil {
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
// realized ε is within budget for k ≤ 2. Admitting catalogue streams
// with k + 1 changes fails the check: some target row then sees an
// indicator stream with k + 1 changes, outside the mechanism's
// guarantee.
func TestDomainClientRatioWithinBudget(t *testing.T) {
	const d, eps = 8, 1.0
	for _, enc := range []hh.DomainEncoding{hh.ExactEncoding(3), hh.LolohaEncoding(6, 2, 1)} {
		for k := 1; k <= 2; k++ {
			r, err := DomainClientRatio(d, k, eps, enc)
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
			if _, err := domainClientRatio(d, k+1, k, eps, enc); err == nil || !strings.Contains(err.Error(), "past the mechanism's k=") {
				t.Errorf("%s k=%d: streams with %d changes pass the check (err %v)", enc.Name, k, k+1, err)
			}
		}
	}
}
