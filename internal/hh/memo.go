package hh

// This file is the version-keyed read cache of the domain servers: the
// EstimateAllAt sweep (and the hashed decoder's bucket-estimate pass)
// is memoized against the accumulator's monotone version stamp, and
// TopK keeps only a k-bounded selection instead of sorting all m items.
//
// Exactness: a memo entry records the stamp returned by Version()
// *before* its sweep ran. Under the accumulator's lock discipline (see
// protocol.DomainSharded) a served run bumps its shard's stamp once, after its
// writes and before it releases the shard's write lock, and the sweep
// takes every shard's read lock when it starts. So:
//
//   - The entry holds every run its stamp counts: such a run had bumped
//     the stamp, hence written everything and released its lock, before
//     the stamp was loaded, and the sweep locked after that.
//   - The entry may also hold runs that ended between the stamp load and
//     the sweep's locks. Each of those bumped the stamp after it was
//     loaded, so the next lookup sees a larger stamp and misses: an
//     entry can be stamped older than its content, never newer.
//   - Stamp components only grow, so a lookup that finds the entry's
//     stamp unchanged certifies that no run ended since the load — the
//     entry holds exactly the runs ended at the lookup, the same cut a
//     fresh sweep would read, and serving it is bit-for-bit identical to
//     recomputing. A run still in flight at the lookup is one a fresh
//     sweep would wait for and the memo answers before; either answer is
//     a point-in-time cut, and at a fence or at quiescence no run is in
//     flight.
//
// The version-silent per-report Ingest is the serial callers' entry;
// they advance the stamp themselves after writing (ldp's DomainServer
// does after every report), which keeps the argument whole for them.

import (
	"sort"
	"sync"
)

// estMemo caches one (t, version)-keyed estimate sweep and one
// (t, k, version)-keyed TopK selection, with the scratch buffers the
// sweeps reuse. Guarded by mu; the cached slices are memo-owned and
// must be copied at any API boundary that hands them out.
type estMemo struct {
	mu sync.Mutex

	estValid bool
	estT     int
	estStamp uint64
	est      []float64 // per-row estimates at estT (exact: per item; hashed: per bucket, decoded)
	tmp      []int64   // integer fold scratch for the sweep

	topValid bool
	topT     int
	topK     int
	topStamp uint64
	top      []ItemCount // selection result at (topT, topK)
}

// selectTopK writes the k largest of count(0), …, count(n−1) into h
// (reusing its capacity; h is truncated first) and returns it sorted in
// decreasing order with ties broken toward the smaller item — exactly
// the full-sort-and-truncate ordering, in O(n + k log k) instead of
// O(n log n).
//
// The heap h is a min-heap of the k best so far; worse = smaller count,
// ties toward the larger item, so the root is always the entry a better
// candidate should displace. Items arrive in ascending order, so a
// candidate equal to the root never displaces it — among boundary ties
// the smaller items win, matching the full sort.
//
// ceiling must be at least every count(x); +Inf is always valid. Once
// the heap is full and its root equals the ceiling, all k entries sit
// at the ceiling and every later item is both no larger and a bigger
// index, so nothing can displace an entry and the sweep stops. On a
// hashed catalogue every item of a bucket shares the bucket's value, so
// with the largest bucket value as ceiling the sweep ends at the k-th
// item of the best bucket — about g·k items in, not m. It never fires
// while the items at the ceiling seen so far number fewer than k (a
// best bucket holding under k items), where the sweep is the full one
// it always was.
func selectTopK(h []ItemCount, n, k int, ceiling float64, count func(int) float64) []ItemCount {
	if k > n {
		k = n
	}
	h = h[:0]
	if k <= 0 {
		return h
	}
	worse := func(a, b ItemCount) bool {
		if a.Count != b.Count {
			return a.Count < b.Count
		}
		return a.Item > b.Item
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(h) && worse(h[l], h[min]) {
				min = l
			}
			if r < len(h) && worse(h[r], h[min]) {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for x := 0; x < n; x++ {
		c := ItemCount{Item: x, Count: count(x)}
		if len(h) < k {
			h = append(h, c)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !worse(h[i], h[p]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		} else if worse(h[0], c) {
			h[0] = c
			siftDown(0)
		} else {
			continue
		}
		// Only a change to the heap can bring its root up to the ceiling.
		if len(h) == k && h[0].Count == ceiling {
			break
		}
	}
	sort.Slice(h, func(i, j int) bool {
		if h[i].Count != h[j].Count {
			return h[i].Count > h[j].Count
		}
		return h[i].Item < h[j].Item
	})
	return h
}
