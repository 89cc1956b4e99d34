package privacy_test

import (
	"math"
	"testing"

	"rtf/internal/hh"
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

// TestShippedDomainClientMatchesExactDistribution is the same tie for
// the shipped ldp.DomainClient: DomainClientRatio certifies the domain
// reduction over the law "a uniform row r, then ClientDist of the
// stream's indicator at r", so the shipped client has to sample exactly
// that. At d = 4 and k = 2, under the exact encoding (m = 3) and the
// loloha encoding (m = 6, g = 2), 400,000 real clients at fixed seeds
// run each of a few catalogue streams, and the empirical frequencies of
// (row, h, ω) are compared with the exact map.
//
// Tolerance: over K outcomes at n samples an exact sampler's expected
// total-variation distance is ½·Σ√(2p(1−p)/(πn)) ≤ ½·√(2K/(πn)) (by
// Cauchy–Schwarz, Σ√p ≤ √K). Here K = rows × 22 (orders 0..2 have
// 2^4 + 2^2 + 2^1 outcomes of ω): 66 under the exact encoding, 44 under
// loloha, so at n = 400,000 the bound is ½·√(132/(π·4·10⁵)) ≈ 0.0051
// and ½·√(88/(π·4·10⁵)) ≈ 0.0042. A tolerance of 0.016 is more than
// three times either, and far below what a skewed row draw would
// produce: a row drawn with probability ½ instead of ⅓ moves at least
// 0.16 of mass. The seeds are fixed, so the test is deterministic.
func TestShippedDomainClientMatchesExactDistribution(t *testing.T) {
	const (
		d, k    = 4, 2
		eps     = 1.0
		clients = 400_000
		tol     = 0.016
	)
	p, err := probmath.NewFutureRand(k, eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		enc     hh.DomainEncoding
		opts    []ldp.Option
		streams [][]int // a value per period, −1 while the user has none
	}{
		{hh.ExactEncoding(3), nil, [][]int{{-1, -1, -1, -1}, {-1, 1, 1, 1}, {0, 0, 2, 2}}},
		{hh.LolohaEncoding(6, 2, 11), []ldp.Option{ldp.WithDomainEncoding("loloha"), ldp.WithBuckets(2), ldp.WithHashSeed(11)},
			[][]int{{5, 5, 5, 5}, {-1, 0, 3, 3}, {1, 1, 4, 4}}},
	} {
		f, err := ldp.NewDomainClientFactory(d, tc.enc.M, append(tc.opts, ldp.WithSparsity(k), ldp.WithEpsilon(eps))...)
		if err != nil {
			t.Fatal(err)
		}
		if f.Encoding() != tc.enc {
			t.Fatalf("factory encoding %+v, want %+v", f.Encoding(), tc.enc)
		}
		rows := tc.enc.Rows()
		for si, vals := range tc.streams {
			counts := make(map[[3]int]int)
			for u := 0; u < clients; u++ {
				c, err := f.NewClient(u, int64(si)*1_000_003+int64(u))
				if err != nil {
					t.Fatal(err)
				}
				omega := 0
				for _, v := range vals {
					r, ok, err := c.Observe(v)
					if err != nil {
						t.Fatal(err)
					}
					if ok && r.Bit == -1 {
						omega |= 1 << uint(r.J-1)
					}
				}
				counts[[3]int{c.Item(), c.Order(), omega}]++
			}
			tv := 0.0
			for row := 0; row < rows; row++ {
				st := make([]uint8, d)
				for i, v := range vals {
					if v >= 0 && tc.enc.Row(v) == row {
						st[i] = 1
					}
				}
				for key, pr := range privacy.ClientDist(st, d, p) {
					outcome := [3]int{row, key[0], key[1]}
					tv += math.Abs(float64(counts[outcome])/clients - pr/float64(rows))
					delete(counts, outcome)
				}
			}
			for key, n := range counts {
				t.Errorf("%s stream %v: %d clients produced outcome %v, which the exact law gives probability 0", tc.enc.Name, vals, n, key)
			}
			if tv /= 2; tv > tol {
				t.Errorf("%s stream %v: total variation %.4f between %d shipped clients and the exact law, want <= %v", tc.enc.Name, vals, tv, clients, tol)
			} else {
				t.Logf("%s stream %v: total variation %.4f", tc.enc.Name, vals, tv)
			}
		}
	}
}
