package hh

// This file is the item read side of both domain encodings: one reader,
// itemReader, over a counter matrix, which DomainServer (exact, over its
// m item rows) and HashedDomainServer (loloha, over its inner g bucket
// rows) embed. Its point, series and top-k reads branch on the encoding
// only where the algorithms differ: an exact point or series read sums
// the item's own counters, a hashed one decodes its bucket. Each reader
// owns one version-keyed memo: the EstimateAllAtInto sweep (decoded in
// place under a hashed encoding) is memoized against the accumulator's
// monotone version stamp, and TopK keeps only a k-bounded selection
// instead of sorting all m items. A hashed server and its Inner() rows
// are two readers over one matrix, so their cached values never mix.
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
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"rtf/internal/protocol"
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
	est      []float64 // per-row values at estT (exact: per item; hashed: per bucket, decoded)
	tmp      []int64   // integer fold scratch for the sweep

	topValid bool
	topT     int
	topK     int
	topStamp uint64
	top      []ItemCount // selection result at (topT, topK)
}

// itemReader answers item queries from a counter matrix under an
// encoding: the rows are the items under the exact encoding and the
// buckets items hash to under a hashed one. With F̂(b, t) the bucket-b
// estimate and N̂(t) = Σ_b F̂(b, t) (summed in fixed bucket order
// 0..g−1, so every deployment decodes bit-for-bit identically), a hashed
// item estimate is
//
//	f̂(x, t) = (F̂(B(x), t) − N̂(t)/g) · g/(g−1)
//
// Each item y ≠ x lands in x's bucket with probability 1/g over the
// seed draw, so E[F̂(B(x))] = f(x) + (N − f(x))/g and the decode is
// unbiased in expectation over the shared seed.
type itemReader struct {
	enc  DomainEncoding
	d    int
	acc  *protocol.DomainSharded // enc.Rows() rows
	memo estMemo
}

// Encoding returns the reader's encoding.
func (r *itemReader) Encoding() DomainEncoding { return r.enc }

// D returns the horizon.
func (r *itemReader) D() int { return r.d }

// M returns the catalogue size: the row count under the exact encoding,
// not under a hashed one.
func (r *itemReader) M() int { return r.enc.M }

// checkItem bounds-checks a catalogue item with the package's own panic
// message (the protocol layer would panic too, one frame deeper).
func (r *itemReader) checkItem(x int) {
	if x < 0 || x >= r.enc.M {
		panic(fmt.Sprintf("hh: item %d outside [0..%d)", x, r.enc.M))
	}
}

// checkTime bounds-checks a period.
func (r *itemReader) checkTime(t int) {
	if t < 1 || t > r.d {
		panic(fmt.Sprintf("hh: time %d out of range [1..%d]", t, r.d))
	}
}

// decode turns a bucket value into an item estimate given the bucket
// total; see itemReader.
func decode(bucket, total, g float64) float64 { return (bucket - total/g) * g / (g - 1) }

// EstimateItemAt returns f̂(item, t), valid online once time t has
// passed. An exact read sums the item's own counters; a hashed one reads
// its bucket from the memoized sweep.
func (r *itemReader) EstimateItemAt(item, t int) float64 {
	if !r.enc.Hashed() {
		r.checkItem(item)
		return r.acc.EstimateAt(item, t)
	}
	v, _ := r.EstimateItemAtCached(item, t)
	return v
}

// EstimateItemAtCached returns f̂(item, t) and whether it was served
// from the version-keyed memo (the serve loops count these hits; a hit
// is bit-for-bit identical to recomputing). An exact point read never
// goes through the memo, so it never reports a hit.
func (r *itemReader) EstimateItemAtCached(item, t int) (float64, bool) {
	if !r.enc.Hashed() {
		return r.EstimateItemAt(item, t), false
	}
	r.checkItem(item)
	r.checkTime(t)
	mm := &r.memo
	mm.mu.Lock()
	defer mm.mu.Unlock()
	v := r.acc.Version()
	hit := mm.estValid && mm.estT == t && mm.estStamp == v
	return r.sweepLocked(t, v)[r.enc.Bucket(item)], hit
}

// EstimateItemSeries returns f̂(item, 1..d). The caller owns the slice.
func (r *itemReader) EstimateItemSeries(item int) []float64 {
	r.checkItem(item)
	if !r.enc.Hashed() {
		return r.acc.EstimateSeries(item)
	}
	total := make([]float64, r.d)
	rows := r.acc.EstimateAllSeries()
	for _, series := range rows {
		for t := range series {
			total[t] += series[t]
		}
	}
	own := rows[r.enc.Bucket(item)]
	g := float64(r.enc.G)
	out := make([]float64, r.d)
	for t := range out {
		out[t] = decode(own[t], total[t], g)
	}
	return out
}

// TopK returns the k items with the largest estimated frequency at time
// t (1-based), in decreasing order with ties broken toward the smaller
// item — the heavy-hitter query the paper's introduction motivates
// (popular URLs). The ordering is a deterministic function of the
// per-item point estimates, so a clustered or recovered deployment
// whose point estimates are bit-for-bit answers the identical top-k
// list. k larger than the catalogue is clamped; t and k are assumed
// range-checked by the caller (the ldp and transport boundaries
// validate), and out-of-range values panic.
func (r *itemReader) TopK(t, k int) []ItemCount {
	out, _ := r.AppendTopK(nil, t, k)
	return out
}

// AppendTopK appends the TopK result to dst and returns the extended
// slice, plus whether the selection was served from the version-keyed
// memo (an unchanged accumulator stamp — see the file comment for why a
// hit is bit-for-bit identical to recomputing). The appended entries
// are a copy: dst never aliases memo-owned storage, so callers may
// retain or mutate the result freely. Passing a recycled dst[:0] makes
// the warm path allocation-free; TopK itself is AppendTopK(nil, …), a
// fresh caller-owned slice.
//
// A hashed sweep hashes catalogue items in ascending order into a
// k-bounded selection, so memory is O(g + k), never O(m), and it stops
// at the k-th item of the best bucket (see selectTopK): about g·k items
// in unless that bucket holds fewer than k.
func (r *itemReader) AppendTopK(dst []ItemCount, t, k int) ([]ItemCount, bool) {
	r.checkTime(t)
	if k < 0 {
		panic("hh: negative k")
	}
	if k > r.enc.M {
		k = r.enc.M
	}
	mm := &r.memo
	mm.mu.Lock()
	defer mm.mu.Unlock()
	v := r.acc.Version()
	if mm.topValid && mm.topT == t && mm.topK == k && mm.topStamp == v {
		return append(dst, mm.top...), true
	}
	est := r.sweepLocked(t, v)
	// No ceiling for distinct items: they rarely tie at the maximum, so
	// finding it would cost a pass over m estimates to save nothing. Every
	// item of a bucket shares its value, so there the best one's is.
	count, ceiling := func(x int) float64 { return est[x] }, math.Inf(1)
	if r.enc.Hashed() {
		count, ceiling = func(x int) float64 { return est[r.enc.Bucket(x)] }, slices.Max(est)
	}
	mm.top = selectTopK(mm.top, r.enc.M, k, ceiling, count)
	mm.topValid, mm.topT, mm.topK, mm.topStamp = true, t, k, v
	return append(dst, mm.top...), false
}

// sweepLocked returns every row's value at t — the item estimates under
// the exact encoding, the decoded bucket values under a hashed one (with
// the total N̂ summed in fixed bucket order) — stamped with version v,
// which the caller must have loaded before calling, serving the memo
// when (t, v) is unchanged. The caller must hold memo.mu; the returned
// slice is memo-owned. The float operations and their order are
// identical whether the sweep is served warm or recomputed.
func (r *itemReader) sweepLocked(t int, v uint64) []float64 {
	mm := &r.memo
	if mm.estValid && mm.estT == t && mm.estStamp == v {
		return mm.est
	}
	if mm.est == nil {
		mm.est = make([]float64, r.enc.Rows())
		mm.tmp = make([]int64, r.enc.Rows())
	}
	est := r.acc.EstimateAllAtInto(mm.est, mm.tmp, t)
	if r.enc.Hashed() {
		g := float64(r.enc.G)
		var total float64
		for _, bv := range est {
			total += bv
		}
		for b, bv := range est {
			est[b] = decode(bv, total, g)
		}
	}
	mm.estValid, mm.estT, mm.estStamp = true, t, v
	return est
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
