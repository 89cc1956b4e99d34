package sim

import (
	"runtime"
	"sync"

	"rtf/internal/core"
	"rtf/internal/dyadic"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/workload"
)

// nzSum is a non-zero partial sum at interval index j of the user's order.
type nzSum struct {
	j    int
	sign int8
}

// nonzeroPartialSums appends to dst, in increasing j, the intervals of
// order h over which the user's value changes an odd number of times,
// with the sign of the resulting partial sum (+1 for a net 0→1
// transition across the interval, −1 for 1→0).
func nonzeroPartialSums(dst []nzSum, us workload.UserStream, h int) []nzSum {
	i := 0
	n := len(us.ChangeTimes)
	parityBefore := 0 // value entering the current interval
	for i < n {
		j := (us.ChangeTimes[i] - 1) >> uint(h) // 0-based interval index
		cnt := 0
		for i < n && (us.ChangeTimes[i]-1)>>uint(h) == j {
			cnt++
			i++
		}
		if cnt%2 == 1 {
			sign := int8(1)
			if parityBefore == 1 {
				sign = -1
			}
			dst = append(dst, nzSum{j: j + 1, sign: sign})
			parityBefore ^= 1
		}
	}
	return dst
}

// userSums appends to dst the non-zero partial sums a user with stream us
// and order h perturbs, drawing from g whatever the mechanism draws
// between the order and its randomizer's init. False means the user
// sends nothing and inits no randomizer.
type userSums func(dst []nzSum, us workload.UserStream, h int, g *rng.RNG) ([]nzSum, bool)

// runFast is the fast engines' one per-user loop. Each user samples and
// registers an order; its non-zero partial sums, as sums lists them, go
// through the real randomizer, and the fair coins of every zero partial
// sum are injected per interval as one draw (Property III). Users are
// split into contiguous runs, one per shard of the returned accumulator
// and one goroutine each (workers < 0: GOMAXPROCS). One shard draws from
// g itself; several draw from g.Derive(shard) each, so a run is
// deterministic for a fixed seed and worker count whatever the
// interleaving (the count decides which users share a stream) and has
// the same law at every count. The zero coins draw from g.
func runFast(w *workload.Workload, factories []core.Factory, scale float64, workers int, g *rng.RNG, sums userSums) *protocol.Sharded {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := max(1, min(workers, w.N)) // an empty workload still needs one shard
	acc := protocol.NewSharded(w.D, scale, shards)
	tree := dyadic.NewTree(w.D)
	nonzero := make([][]int, shards)
	per := (w.N + shards - 1) / shards
	var wg sync.WaitGroup
	for s := range shards {
		gg := g
		if shards > 1 {
			gg = g.Derive(uint64(s))
		}
		nonzero[s] = make([]int, tree.Size())
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// The worker is its shard's only writer: one run, one lock.
			wr := acc.Lock(s)
			defer wr.Unlock()
			var buf []nzSum
			for u := s * per; u < min((s+1)*per, w.N); u++ {
				h := protocol.SampleOrder(gg, w.D)
				wr.Register(0, h)
				var ok bool
				if buf, ok = sums(buf[:0], w.Users[u], h, gg); !ok {
					continue
				}
				inst := factories[h].NewInstance(gg)
				for _, nz := range buf {
					wr.Ingest(0, protocol.Report{User: u, Order: h, J: nz.j, Bit: inst.Perturb(nz.sign)})
					nonzero[s][tree.FlatIndex(dyadic.Interval{Order: h, Index: nz.j})]++
				}
			}
		}(s)
	}
	wg.Wait()

	// Every user at order h whose partial sum at I_{h,j} is zero reports
	// a fair ±1 coin there: their sum is one signed binomial draw.
	_, perOrder, _ := acc.Fold()
	for h, uh := range perOrder {
		for j := 1; j <= dyadic.CountAtOrder(w.D, h); j++ {
			iv := dyadic.Interval{Order: h, Index: j}
			zeros := int(uh)
			for _, nz := range nonzero {
				zeros -= nz[tree.FlatIndex(iv)]
			}
			if zeros > 0 {
				acc.IngestSum(0, iv, int64(g.SignedBinomialHalfSum(zeros)))
			}
		}
	}
	return acc
}
