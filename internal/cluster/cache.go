package cluster

import (
	"sync"
	"time"

	"rtf/internal/transport"
)

// This file is the gateway's read-path cache: a version-stamped record
// of the last completed cluster-wide gather, plus the single-flight
// latch that coalesces concurrent identical gathers into one
// scatter/gather round.
//
// Exactness argument. The gateway keeps a monotone ingest epoch
// (Gateway.ingestEpoch) that advances whenever the cluster-wide answer
// could change out from under a reader: when a forward starts (the
// reports may land on a backend at any point after), when a fence
// certifies previously unfenced forwards as applied, when a lease
// carrying unfenced forwards is dropped (the forwards may still land
// without any fence ever recording it), and when a reshard moves the
// counters. A cache entry is stamped with the epoch loaded BEFORE its
// gather's first fetch (session.scatter). If a reader loads the epoch
// and finds it equal to the entry's stamp, no forward started, fenced,
// or died between the gather and the read — so a fresh gather would
// fetch the very same per-shard sums and fold them in the very same
// order, and the cached answer is bit-for-bit what recomputing would
// produce. A stale stamp only ever causes a harmless recompute. The
// argument is the same over either placement and rests on one
// assumption both share: every write to the backends passes through
// this gateway.
//
// What a miss costs is the placement's business, not the cache's: over
// replicated shards the gather parks every session and fences their
// forwards before it loads its stamp (Gateway.settle), over unreplicated
// ones it runs beside them. A hit takes no lock and fences nothing on
// either.
//
// Sessions with unfenced forwards never touch the cache: their query
// doubles as the fence certifying this session's forwards, and neither
// a cached entry nor another session's flight can certify them. They
// run their own gather, exactly as before this cache existed.
//
// The opt-in TTL mode (Gateway.AnswerCacheTTL > 0) additionally accepts
// an entry younger than the TTL even when its stamp is stale — bounded
// staleness in exchange for a scatter-free read path under sustained
// ingest. Off by default.
//
// Scope. A gather fetches the columns its read evaluates
// (transport.Scope: a point or top-k at t needs [1..t]'s dyadic cover,
// a dozen counters a row, not the whole matrix), and the entry it fills
// answers only reads that scope covers. A clean read that finds a
// current entry which does not cover it has just learned that this
// epoch is being read at more than one range, so it gathers every
// column, once: an ingest epoch costs at most one scoped and one full
// gather however many periods a client sweeps, and the common case —
// every reader at the current period — never moves a full matrix.

// cacheEntry is one completed cluster-wide gather: the backends' sums
// merged and folded once, under the scope the embedded Gathered records.
// Entries are immutable after fill (see transport.Gathered), so any
// number of connections may share one entry concurrently.
type cacheEntry struct {
	*transport.Gathered
	stamp  uint64    // ingest epoch loaded before the gather's first fetch
	filled time.Time // gather completion, for the opt-in TTL mode
}

// answerCache is the entry slot plus the single-flight latch. Both are
// guarded by mu; the flight's done channel is closed exactly once, by
// its leader, after the outcome fields are published.
type answerCache struct {
	mu     sync.Mutex
	entry  *cacheEntry
	flight *gatherFlight
}

// gatherFlight is one in-progress gather that concurrent clean-session
// queries may join instead of scattering themselves.
type gatherFlight struct {
	done  chan struct{}
	scope transport.Scope // what the leader gathers; joiners need it to cover them
	entry *cacheEntry     // nil when err != nil
	err   error
}

// clean reports whether the session has no unfenced forwards on any
// backend lease — the precondition for serving its queries from the
// shared cache or another session's flight.
func (s *session) clean() bool {
	for _, l := range s.links {
		if l.unfenced.Load() {
			return false
		}
	}
	return true
}

// entryCurrent reports whether a cache entry may answer a query right
// now: always when its stamp equals the current ingest epoch (provably
// bit-for-bit fresh), and additionally within AnswerCacheTTL of its
// fill time when the operator opted into bounded staleness.
func (g *Gateway) entryCurrent(e *cacheEntry, epoch uint64, now time.Time) bool {
	if e.stamp == epoch {
		return true
	}
	return g.AnswerCacheTTL > 0 && now.Sub(e.filled) < g.AnswerCacheTTL
}

// joinAttempts bounds how many completed-but-stale flights a waiter
// rides before giving up and gathering itself.
const joinAttempts = 2

// acquireEntry obtains the gathered cluster state a query of the given
// scope needs: from the cache when the entry is current and covers it,
// by joining an in-flight gather that covers it, or by scattering itself
// (becoming the flight leader other clean sessions coalesce onto). It
// reports whether the answer came from the warm cache (hit: no gather
// ran anywhere on behalf of this query) and whether this query coalesced
// onto another session's flight. Sessions with unfenced forwards bypass
// the cache entirely — see the package comment at the top of this file.
func (g *Gateway) acquireEntry(s *session, scope transport.Scope) (e *cacheEntry, hit, coalesced bool, err error) {
	if !s.clean() {
		e, err = s.scatter(scope)
		return e, false, false, err
	}
	c := &g.cache
	for attempt := 0; attempt < joinAttempts; attempt++ {
		epoch := g.ingestEpoch.Load()
		c.mu.Lock()
		if e := c.entry; e != nil && g.entryCurrent(e, epoch, time.Now()) {
			if e.Scope().Covers(scope) {
				c.mu.Unlock()
				return e, true, false, nil
			}
			// A second range inside one epoch: gather every column.
			scope = transport.Scope{}
		}
		f := c.flight
		if f == nil {
			// Become the leader: gather once, publish, wake the joiners.
			f = &gatherFlight{done: make(chan struct{}), scope: scope}
			c.flight = f
			c.mu.Unlock()
			e, err = s.scatter(scope)
			c.mu.Lock()
			c.flight = nil
			if err == nil {
				f.entry, c.entry = e, e
			}
			f.err = err
			c.mu.Unlock()
			close(f.done)
			return e, false, false, err
		}
		c.mu.Unlock()
		if !f.scope.Covers(scope) {
			// Not our columns; this query gathers its own, unshared.
			break
		}
		<-f.done
		if f.err != nil {
			// The leader's failure may be specific to its session's
			// backends-at-that-moment; this query still owes an answer,
			// so gather on our own leases below.
			break
		}
		if g.entryCurrent(f.entry, g.ingestEpoch.Load(), time.Now()) {
			return f.entry, false, true, nil
		}
		// The flight's result went stale while we waited; retry — the
		// next round finds a fresher entry, a newer flight, or leads.
	}
	e, err = s.scatter(scope)
	return e, false, false, err
}

// countCacheOutcome records one successfully answered gateway query
// against the read-path cache counters. Every gateway query shape goes
// through acquireEntry, so every one is eligible and counts exactly one
// hit or miss; coalesced joins are a subset of the misses.
func (g *Gateway) countCacheOutcome(hit, coalesced bool) {
	if g.Metrics == nil {
		return
	}
	g.Metrics.CountCacheEligible()
	g.Metrics.CountCacheResult(hit)
	if coalesced {
		g.Metrics.CountCoalesced()
	}
}
