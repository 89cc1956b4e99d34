package cluster

import (
	"sync"

	"rtf/internal/transport"
	"rtf/internal/wire"
)

// This file is the gateway's read-path cache: a version-stamped record
// of the last completed cluster-wide gather, plus the single-flight
// latch that coalesces concurrent identical gathers into one
// scatter/gather round.
//
// Exactness argument. The gateway keeps a monotone ingest epoch
// (Gateway.ingestEpoch) that advances, by one, at every event after which
// the cluster-wide answer could differ: when a forward starts (the
// reports may land on a backend at any point after), when a fence
// certifies previously unfenced forwards as applied, when a lease
// carrying unfenced forwards is dropped (the forwards may still land
// without any fence ever recording it), and when a reshard moves the
// counters. A reader that loads the epoch and finds it equal to an
// entry's stamp may serve the entry as exact; what has to be shown is
// that a stamp of e is only ever put on a gather that read the cluster as
// it stands for the whole of epoch e.
//
// An entry's stamp is the epoch its gather left, proven by counting.
// session.scatter loads the epoch (found) before its first fetch, counts
// the fences it performs itself — own: each round trip that certified
// unfenced forwards of its own session is exactly one step of the epoch
// (session.certify) — and, once the frames are folded, stamps the entry
// found + own iff the epoch then reads found + own. The epoch never
// decreases and the gather's own fences account for own steps of it, so
// equality means no other step was taken between the load and the check:
// no other session started a forward, was fenced, lost an unfenced lease
// or resharded while this gather ran. Every fetch therefore read a
// cluster that only this session's fences were touching, and a fence
// writes nothing — it learns that forwards written before the read are
// applied, which the backend's in-order handling of the lease guarantees
// the fetch behind them saw. So a gather started at any moment of epoch
// found + own would fetch the very same per-shard sums and fold them in
// the very same order, and the entry is bit-for-bit what recomputing
// would produce for as long as the epoch stays there. A clean session's
// gather is the case own = 0: its stamp is the epoch it loaded.
//
// A gather that cannot prove it — the epoch moved by more than own —
// keeps the stamp found. Some step was taken after found was loaded, so
// found is already behind the epoch and stays behind: the entry answers
// the query that gathered it and is exact for nobody else.
//
// One case needs care, and it is the same for a fence's gather as for a
// clean session's: another session's forward that started before found
// was loaded and has not been fenced yet. Its reports may land during the
// gather or after it, and the count cannot see them. But that forward
// advanced the epoch when it started (before found) and will advance it
// again when it is fenced or its lease dies — after which no entry
// stamped found + own is served. Until then nobody has been told those
// reports are applied, the session that sent them does not read the
// cache, and an answer with or without them is an answer a single server
// racing the same forward could have given.
//
// A stale stamp only ever causes a harmless recompute. The argument is
// the same over either placement — over replicated shards every session
// is parked and fenced before found is loaded, so own = 0 and nothing can
// move the epoch while the gather holds the view lock — and rests on one
// assumption both share: every write to the backends passes through this
// gateway.
//
// What a miss costs is the placement's business, not the cache's: over
// replicated shards the gather parks every session and fences their
// forwards before it loads its stamp (Gateway.settle), over unreplicated
// ones it runs beside them. A hit takes no lock and fences nothing on
// either.
//
// Publication. Only a flight's leader publishes, and only an entry that a
// reader arriving at that moment would be served: one whose stamp is the
// current epoch. Leaders take turns at the latch and each loads found
// after its predecessor's check, so stamps never decrease and an entry is
// never replaced by an older one. A gather that runs beside a flight —
// other columns, a failed or stale flight, an unclean session, which may
// not join — answers its own query and publishes nothing.
//
// Who may read. A session with unfenced forwards never reads an entry and
// never joins a flight: its query doubles as the fence certifying its
// forwards, and only a round trip on its own leases does that. Its gather
// is led and published like any other — the first read behind a write
// burst fills the cache for everyone, itself included from its next read
// on — so a write burst costs one gather, not the fence and then a miss.
// Clean sessions arriving during a fence gather join it as they join any
// flight.
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
	stamp uint64 // ingest epoch the gather left, or the stale one it found
}

// answerCache is the entry slot plus the single-flight latch. Both are
// guarded by mu; the flight's done channel is closed exactly once, by
// its leader, after the outcome fields are published.
type answerCache struct {
	mu     sync.Mutex
	entry  *cacheEntry
	flight *gatherFlight
}

// gatherFlight is one in-progress gather — a clean session's miss or an
// unclean one's fence — that concurrent clean-session queries may join
// instead of scattering themselves.
type gatherFlight struct {
	done  chan struct{}
	scope wire.Scope  // what the leader gathers; joiners need it to cover them
	entry *cacheEntry // nil when err != nil
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

// joinAttempts bounds how many completed-but-stale flights a waiter
// rides before giving up and gathering itself.
const joinAttempts = 2

// acquireEntry obtains the gathered cluster state a query of the given
// scope needs: from the cache when the entry is current and covers it,
// by joining an in-flight gather that covers it, or by scattering itself
// (becoming the flight leader clean sessions coalesce onto). It reports
// whether the answer came from the warm cache (hit: no gather ran
// anywhere on behalf of this query) and whether this query coalesced
// onto another session's flight. A session with unfenced forwards does
// neither — only its own round trips certify them — but leads like any
// other; see the comment at the top of this file.
func (g *Gateway) acquireEntry(s *session, scope wire.Scope) (e *cacheEntry, hit, coalesced bool, err error) {
	c, fence := &g.cache, !s.clean()
	for attempt := 0; attempt < joinAttempts; attempt++ {
		epoch := g.ingestEpoch.Load()
		c.mu.Lock()
		if e := c.entry; !fence && e != nil && e.stamp == epoch {
			if e.Scope().Covers(scope) {
				c.mu.Unlock()
				return e, true, false, nil
			}
			// A second range inside one epoch: gather every column.
			scope = wire.Scope{}
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
			// Published only if a reader arriving now would be served it:
			// under a stamp the gather proved.
			published := err == nil && e.stamp == g.ingestEpoch.Load()
			if published {
				c.entry = e
			}
			f.entry, f.err = e, err
			c.mu.Unlock()
			close(f.done)
			if published && g.Metrics != nil {
				g.Metrics.CountCacheFill(fence)
			}
			return e, false, false, err
		}
		c.mu.Unlock()
		if fence || !f.scope.Covers(scope) {
			// Not ours to wait for — no other session's round trips fence
			// this one's forwards — or not our columns: this query gathers
			// its own, unshared.
			break
		}
		<-f.done
		if f.err != nil {
			// The leader's failure may be specific to its session's
			// backends-at-that-moment; this query still owes an answer,
			// so gather on our own leases below.
			break
		}
		if f.entry.stamp == g.ingestEpoch.Load() {
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
	g.Metrics.CountCacheResult(hit)
	if coalesced {
		g.Metrics.CountCoalesced()
	}
}
