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

// runFrameworkFastParallel is the sharded variant of runFrameworkFast:
// users are split into contiguous shards, each processed by a worker
// accumulating into its own shard of a protocol.Sharded with a
// scheduling-independent derived RNG stream, then folded into srv.
// Results are deterministic for a fixed seed and worker count, whatever
// the interleaving (each shard's randomness depends only on its index;
// the worker count decides which users share a shard's stream), and
// distributionally identical to the serial engines.
func runFrameworkFastParallel(w *workload.Workload, factories []core.Factory, srv *protocol.Server, g *rng.RNG, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > w.N {
		workers = w.N
	}
	tree := srv.Tree()

	acc := protocol.NewSharded(srv.D(), srv.Scale(), workers)
	nonzeroByShard := make([][]int, workers)
	var wg sync.WaitGroup
	per := (w.N + workers - 1) / workers
	for s := 0; s < workers; s++ {
		lo := s * per
		hi := lo + per
		if hi > w.N {
			hi = w.N
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			nonzero := make([]int, tree.Size())
			gg := g.Derive(uint64(s))
			// The worker is its shard's only writer: one run, one lock.
			wr := acc.Lock(s)
			defer wr.Unlock()
			for u := lo; u < hi; u++ {
				us := w.Users[u]
				h := protocol.SampleOrder(gg, w.D)
				wr.Register(0, h)
				if us.NumChanges() == 0 {
					continue
				}
				inst := factories[h].NewInstance(gg)
				for _, nz := range nonzeroPartialSums(us, h) {
					wr.Ingest(0, protocol.Report{User: u, Order: h, J: nz.j, Bit: inst.Perturb(nz.sign)})
					nonzero[tree.FlatIndex(dyadic.Interval{Order: h, Index: nz.j})]++
				}
			}
			nonzeroByShard[s] = nonzero
		}(s, lo, hi)
	}
	wg.Wait()

	srv.MergeSharded(acc)
	total := make([]int, tree.Size())
	for _, nonzero := range nonzeroByShard {
		for i, c := range nonzero {
			total[i] += c
		}
	}
	injectZeroCoins(srv, total, g)
}
