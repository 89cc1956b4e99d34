package sim

import (
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
// sum are injected per interval as one draw (Property III). Every draw
// comes from g, in user order, so a run is a function of the seed.
func runFast(w *workload.Workload, factories []core.Factory, scale float64, g *rng.RNG, sums userSums) *protocol.Sharded {
	acc := protocol.NewSharded(w.D, scale, 1)
	tree := dyadic.NewTree(w.D)
	nonzero := make([]int, tree.Size())
	// The loop is the shard's only writer: one run, one lock.
	wr := acc.Lock(0)
	var buf []nzSum
	for u := range w.N {
		h := protocol.SampleOrder(g, w.D)
		wr.Register(0, h)
		var ok bool
		if buf, ok = sums(buf[:0], w.Users[u], h, g); !ok {
			continue
		}
		inst := factories[h].NewInstance(g)
		for _, nz := range buf {
			wr.Ingest(0, protocol.Report{User: u, Order: h, J: nz.j, Bit: inst.Perturb(nz.sign)})
			nonzero[tree.FlatIndex(dyadic.Interval{Order: h, Index: nz.j})]++
		}
	}
	wr.Unlock()

	// Every user at order h whose partial sum at I_{h,j} is zero reports
	// a fair ±1 coin there: their sum is one signed binomial draw.
	_, perOrder, _ := acc.Fold()
	for h, uh := range perOrder {
		for j := 1; j <= dyadic.CountAtOrder(w.D, h); j++ {
			iv := dyadic.Interval{Order: h, Index: j}
			if zeros := int(uh) - nonzero[tree.FlatIndex(iv)]; zeros > 0 {
				acc.IngestSum(0, iv, int64(g.SignedBinomialHalfSum(zeros)))
			}
		}
	}
	return acc
}
