package main

import (
	"math"
	"sort"
)

// Interference on a shared host is one-sided: steal and noisy
// neighbours only ever slow a round down, while a code regression
// slows every round. The end-to-end timings are therefore estimated
// from the fast side of the per-round distribution, not from pooled
// percentiles or whole-window rates (see README.md, "How a number is
// estimated").

// latencyGroup is how many consecutive queries, in issue order, form
// one latency round: the p95 of 200 samples leaves ten beyond it.
const latencyGroup = 200

// fastTailRank is the 1-based rank, counted from the best round, whose
// value the fast-tail estimator reports for r rounds: max(10, ⌈r/50⌉),
// so at least ten rounds lie beyond it whenever r > 10. Fewer rounds
// than the rank (toy sizes) report the worst round.
func fastTailRank(r int) int {
	rank := (r + 49) / 50
	if rank < 10 {
		rank = 10
	}
	if rank > r {
		rank = r
	}
	return rank
}

// fastTail sorts vals best-first and returns the value at
// fastTailRank(len(vals)). It returns NaN for no rounds. vals is
// reordered.
func fastTail(vals []float64, higherIsBetter bool) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	rank := fastTailRank(len(vals))
	if higherIsBetter {
		return vals[len(vals)-rank]
	}
	return vals[rank-1]
}

// quantileIndex is the 0-based index of the p-quantile in an ascending
// sort of n samples (nearest rank): ⌈p·n⌉ − 1.
func quantileIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// samplesBeyond is how many of n samples lie strictly past the
// p-quantile's rank. A percentile is only reported when at least ten
// do.
func samplesBeyond(n int, p float64) int { return n - 1 - quantileIndex(n, p) }

// groupQuantiles splits one set's latencies (in issue order) into
// consecutive full groups of latencyGroup and returns each group's
// median and p95. A trailing partial group is dropped so every group
// has the same support; a set shorter than one group (toy sizes) is one
// short group.
func groupQuantiles(lat []float64) (p50s, p95s []float64) {
	size := min(latencyGroup, len(lat))
	if size == 0 {
		return nil, nil
	}
	buf := make([]float64, size)
	for off := 0; off+size <= len(lat); off += size {
		copy(buf, lat[off:off+size])
		sort.Float64s(buf)
		p50s = append(p50s, buf[quantileIndex(size, 0.50)])
		p95s = append(p95s, buf[quantileIndex(size, 0.95)])
	}
	return p50s, p95s
}

// pooledQuantile is the nearest-rank p-quantile of all samples, or NaN
// when fewer than ten samples lie beyond it. Diagnostics only: pooled
// percentiles move 10–30 % between identical runs on this host.
func pooledQuantile(lat []float64, p float64) float64 {
	if len(lat) == 0 || samplesBeyond(len(lat), p) < 10 {
		return math.NaN()
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	return s[quantileIndex(len(s), p)]
}

// median returns the middle value (mean of the middle two for even n),
// NaN for none. vals is reordered.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
