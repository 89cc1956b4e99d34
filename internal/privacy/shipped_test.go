package privacy_test

import (
	"math"
	"testing"

	"rtf/internal/privacy"
	"rtf/internal/probmath"
	"rtf/ldp"
)

// TestShippedClientMatchesExactDistribution ties the code that ships
// bits to the law the privacy check certifies: ClientRatio proves
// Theorem 4.5 over ClientDist, so the shipped ldp.Client has to sample
// exactly that distribution. For d = 4, k = 2 and every admissible
// stream, 100,000 real clients at fixed seeds run the whole horizon and
// the empirical frequencies of (h, ω) are compared with the exact map.
//
// Tolerance: an exact sampler's expected total-variation distance from
// its own law over the 22 outcomes at n = 100,000 is about
// ½·Σ√(2p(1−p)/(πn)) ≈ 0.005; the seeds are fixed, so the test is
// deterministic (it reads 0.004–0.007 per stream), and 0.012 leaves room
// for a different seed schedule while staying far below what a sign
// error, a skewed order draw or a zero answered without a fair coin
// would produce.
func TestShippedClientMatchesExactDistribution(t *testing.T) {
	const (
		d, k    = 4, 2
		eps     = 1.0
		clients = 100_000
		tol     = 0.012
	)
	p, err := probmath.NewFutureRand(k, eps)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ldp.NewClientFactory(d, ldp.WithSparsity(k), ldp.WithEpsilon(eps))
	if err != nil {
		t.Fatal(err)
	}
	for si, st := range privacy.StreamEnumerator(d, k) {
		counts := make(map[[2]int]int)
		for u := 0; u < clients; u++ {
			c, err := f.NewClient(u, int64(si)*1_000_003+int64(u))
			if err != nil {
				t.Fatal(err)
			}
			omega := 0
			for _, v := range st {
				if r, ok := c.Observe(v != 0); ok && r.Bit == -1 {
					omega |= 1 << uint(r.J-1)
				}
			}
			counts[[2]int{c.Order(), omega}]++
		}
		exact := privacy.ClientDist(st, d, p)
		tv := 0.0
		for key, pr := range exact {
			tv += math.Abs(float64(counts[key])/clients - pr)
			delete(counts, key)
		}
		for key, n := range counts {
			t.Errorf("stream %v: %d clients produced outcome %v, which the exact law gives probability 0", st, n, key)
		}
		if tv /= 2; tv > tol {
			t.Errorf("stream %v: total variation %.4f between %d shipped clients and the exact law, want <= %v", st, tv, clients, tol)
		} else {
			t.Logf("stream %v: total variation %.4f", st, tv)
		}
	}
}
