// Package cluster implements horizontal scale-out of the aggregation
// service: a Gateway speaks the same wire protocol as rtf-serve on its
// front, spreads ingested users over rtf-serve backends on its back, and
// answers every query shape by scatter/gather — it fetches the backends'
// raw per-interval bit sums, adds them up and estimates from an
// accumulator built over the total.
//
// Where the counters live is a Placement, and it is data: users hash
// onto shards (user mod NumShards) and a membership.View names the K
// backends that own each shard. The static partition map of
// `-backends a,b,c` is the view that never changes — N shards, K = 1,
// shard i on backend i, each backend read whole; `-members` is the
// epoched rendezvous view over membership-mode backends, K-way
// replicated on ingest, read per owned shard, and moved by Reshard. One
// session type forwards, fetches and gathers over either.
//
// Merging raw integer sums, not scaled float answers, is what keeps the
// cluster exact: the dyadic accumulator is additive (Σ over shards of
// per-interval int64 sums equals the single-server sums), and the
// estimator is a fixed linear function of those integers evaluated in a
// fixed order, so a gateway answer is bit-for-bit the answer of one
// serial server fed every backend's reports. Averaging or summing the
// backends' float estimates would instead pick up order-dependent
// rounding. Replicas of a shard are compared by exact integer equality
// before one copy is folded.
//
// Failure semantics mirror a single rtf-serve. Forwarded ingest
// batches are acknowledged only by a later query on the same client
// connection (the fence); traffic fenced before a backend crash is
// recovered by that backend's snapshot+WAL. A backend connection that
// fails while the session has *unfenced* forwards on it fails the
// whole client connection — the forwards are indeterminate (maybe
// applied, maybe lost with the crash), and a surviving connection
// whose fence succeeds would falsely certify them; the client learns
// exactly what it learns when a single server dies under it, and
// re-sends per its own bookkeeping. Only operations with nothing
// unfenced at stake — dials, and sums fetches on a clean session —
// retry a dead backend with exponential backoff
// (transport.ClusterOptions), so a restarting backend stalls queries
// rather than failing them; a backend that stays dead fails the read
// unless every shard it owns has another live owner, in which case the
// session stops asking it.
package cluster

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtf/internal/dyadic"
	"rtf/internal/membership"
	"rtf/internal/transport"
)

// Placement says where a deployment's counters live: the initial view,
// what errors call a backend of it, and whether a backend is read whole.
type Placement struct {
	view  membership.View
	noun  string
	whole bool
}

// Static is the fixed partition map over the given rtf-serve addresses:
// user mod N routes to addrs[user mod N], so the order must be identical
// on every gateway. Each backend is read with the mode's own sums
// request; the view never changes.
func Static(addrs []string) Placement {
	v := membership.View{Epoch: 1, K: 1, NumShards: len(addrs)}
	for i, a := range addrs {
		v.Members = append(v.Members, membership.Member{ID: strconv.Itoa(i), Addr: a})
	}
	return Placement{view: v, noun: "backend", whole: true}
}

// Members is the dynamic placement over membership-mode backends
// (rtf-serve -membership): numShards virtual shards, each placed on k of
// the members by rendezvous hashing, at epoch 1.
func Members(numShards, k int, members []membership.Member) Placement {
	v := membership.View{Epoch: 1, K: k, NumShards: numShards, Members: members}
	return Placement{view: v.Clone(), noun: "member"}
}

// layout is one epoch's view resolved for the hot paths. It is immutable;
// every session that adopted the epoch shares it.
type layout struct {
	membership.View
	route []int // the K owners of shard 0, of shard 1, …: indices into Members
	// reads[i] is what backend i is asked for, one sums request each, in
	// shard order: the shards it owns, or -1, its whole state.
	reads [][]int
}

func (p Placement) layout(v membership.View) *layout {
	l := &layout{View: v, reads: make([][]int, len(v.Members))}
	for sh := 0; sh < v.NumShards; sh++ {
		owners, ask := []int{sh}, -1
		if !p.whole {
			owners, ask = v.Owners(sh), sh
		}
		for _, i := range owners {
			l.reads[i] = append(l.reads[i], ask)
		}
		l.route = append(l.route, owners...)
	}
	return l
}

// owners returns the shard's owners, best first. Flat, so that routing a
// stretch of records costs one multiplication and no slice header.
func (l *layout) owners(sh int) []int { return l.route[sh*l.K : (sh+1)*l.K] }

// Gateway fronts a placement of rtf-serve backends with the rtf-serve
// wire protocol of its Mode: batched ingestion, every query shape, and
// raw-sums requests (so gateways stack: a gateway is itself a valid
// backend). It is the serving core (transport.Server) with sessions whose
// Apply partitions and forwards to every owner and whose Gather is a
// cached scatter/gather. Every backend must be started with the same
// mode parameters as the gateway; a gateway serves exactly one mode,
// like its backends, and off-mode frames fail the connection.
type Gateway struct {
	// Server carries the listener lifecycle and the ErrorLog, Metrics
	// and Queue fields. Queue admission runs before anything is
	// forwarded, so a shed batch reaches no backend at all; admitted
	// batches forward downstream as ordinary blocking batches, so
	// backends never shed a forward and a batch cannot end up applied on
	// one partition and dropped on another.
	*transport.Server

	// AnswerCacheTTL, when positive, opts the gateway into bounded-
	// staleness reads: a cached gather younger than this may answer a
	// clean session's query even when ingest has advanced since it was
	// filled. Zero (the default) keeps the cache exact — an entry is
	// served only when the ingest epoch proves it bit-for-bit equal to a
	// fresh scatter/gather. See cache.go.
	AnswerCacheTTL time.Duration

	pools *transport.ReplicaClient
	mode  transport.Mode
	place Placement

	// vmu is the epoch fence. Sessions hold it shared for one ingest run,
	// for a gather over unreplicated shards and while they close; Reshard
	// and a gather over replicas hold it exclusively, so every other
	// session is parked between runs, its leases quiescent and safe to
	// round-trip fences on.
	vmu sync.RWMutex
	lay *layout

	// smu guards the session registry fenceSessions walks.
	smu      sync.Mutex
	sessions map[*session]struct{}

	// ingestEpoch advances whenever the cluster-wide answer could have
	// changed: a forward starting, a fence certifying forwards as
	// applied, an unfenced lease dying, or a reshard. Cache entries are
	// stamped with it; see cache.go for the exactness argument.
	ingestEpoch atomic.Uint64
	// cache is the version-stamped gathered-sums cache and the
	// single-flight latch coalescing concurrent identical gathers.
	cache answerCache

	transfers   atomic.Int64 // shard snapshots shipped by reshards
	divergences atomic.Int64 // gathers that found replica mismatch
	shortReads  atomic.Int64 // shards answered by fewer than K replicas
}

// New builds the gateway of a mode over a placement; opts configure the
// backend connection pool it owns.
func New(mode transport.Mode, p Placement, opts transport.ClusterOptions) (*Gateway, error) {
	if d := mode.Ingest().D; !dyadic.IsPow2(d) {
		return nil, fmt.Errorf("cluster: d=%d not a power of two", d)
	}
	if err := p.view.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: initial view: %w", err)
	}
	g := &Gateway{pools: transport.NewReplicaClient(opts), mode: mode, place: p,
		lay: p.layout(p.view), sessions: make(map[*session]struct{})}
	label := mode.Name()
	if !p.whole {
		label = transport.MemberLabel("member", mode)
	}
	g.Server = transport.NewServer(mode, label, g.openSession, g.pools.Close)
	return g, nil
}

// link is a session's state towards one backend of its adopted layout.
type link struct {
	// bc is the leased connection, acquired lazily. Using one connection
	// per backend for the whole session makes the backend's in-order frame
	// handling a fence: a sums fetch sees everything this session
	// forwarded before it.
	bc *transport.BackendConn
	// unfenced records that the lease carries forwards not yet covered by
	// a successful fetch. Losing such a lease makes those forwards
	// indeterminate, so the session must fail rather than silently re-dial
	// and certify them with a fence. Atomic because a read that hits the
	// cache checks it under no lock while another session's gather may be
	// fencing this one.
	unfenced atomic.Bool
	// down is why a clean fetch of this backend failed: for the rest of
	// the session it is not asked again (its shards answer from surviving
	// replicas) — a dead replica must not stall every read on redials.
	down error
}

// session is the per-client-connection state: the layout it last adopted
// and one link per backend of it. Between ingest runs and gathers a
// session is quiescent, which is when another session's fenceSessions may
// round-trip on its leases (and poison it on a failure).
type session struct {
	g     *Gateway
	lay   *layout
	links []*link              // by position in lay.Members
	bufs  []transport.RawBatch // so are the reused forward frames
	// poisoned is set when a fence on this session's unfenced forwards
	// failed: the forwards are indeterminate and the session must surface
	// the error rather than certify them later. The failed link stays
	// unfenced, so a poisoned session never reads from the cache.
	poisoned error
}

func (g *Gateway) openSession(int) transport.Session {
	s := &session{g: g}
	g.smu.Lock()
	g.sessions[s] = struct{}{}
	g.smu.Unlock()
	return s
}

// name is what errors call backend i: "backend 2", "member b1".
func (s *session) name(i int) string { return s.g.place.noun + " " + s.lay.Members[i].ID }

// adopt moves the session onto the gateway's current layout, keeping the
// links to backends that are still in it at the same address and
// releasing the rest. Reshard fenced everything before the epoch
// switched, so a released lease carries nothing unfenced (a failed fence
// poisoned the session before it could adopt). The caller holds vmu.
func (s *session) adopt() {
	prev, next := s.lay, s.g.lay
	if prev == next {
		return
	}
	links := make([]*link, len(next.Members))
	for i, mem := range next.Members {
		links[i] = new(link)
		for j := range s.links {
			if prev.Members[j] == mem {
				links[i], s.links[j] = s.links[j], nil
			}
		}
	}
	for j, l := range s.links {
		if l != nil {
			s.g.pools.Release(prev.Members[j].Addr, l.bc, true)
		}
	}
	s.lay, s.links, s.bufs = next, links, make([]transport.RawBatch, len(links))
}

func (s *session) lease(i int) (*transport.BackendConn, error) {
	l := s.links[i]
	if l.bc == nil {
		bc, err := s.g.pools.Lease(s.lay.Members[i].Addr)
		if err != nil {
			return nil, err
		}
		l.bc = bc
	}
	return l.bc, nil
}

// drop closes and forgets a lease that saw an error. Losing a lease
// with unfenced forwards advances the ingest epoch: the forwards may
// still land on the backend without any fence ever recording it, so
// cache entries gathered before the drop can no longer be proven fresh.
func (s *session) drop(i int) {
	if l := s.links[i]; l.bc != nil {
		if l.unfenced.Load() {
			s.g.ingestEpoch.Add(1)
		}
		s.g.pools.Release(s.lay.Members[i].Addr, l.bc, false)
		l.bc = nil
	}
}

// certify records a completed round trip on link l: everything forwarded
// on its lease is now certifiably applied — the cluster-wide answer may
// have changed, so cache entries gathered before this fence go stale. It
// reports whether there was anything to certify, which is exactly whether
// it advanced the ingest epoch by one: a gather counts the steps that are
// its own (see cache.go).
func (s *session) certify(l *link) bool {
	if !l.unfenced.Load() {
		return false
	}
	l.unfenced.Store(false)
	s.g.ingestEpoch.Add(1)
	return true
}

// Close deregisters the session and releases every lease; healthy
// connections with nothing unfenced on them return to the pool. It holds
// the view lock shared, like a run, so no fence is round-tripping on a
// lease it releases.
func (s *session) Close(healthy bool) {
	g := s.g
	g.vmu.RLock()
	defer g.vmu.RUnlock()
	g.smu.Lock()
	delete(g.sessions, s)
	g.smu.Unlock()
	for i, l := range s.links {
		g.pools.Release(s.lay.Members[i].Addr, l.bc, healthy && !l.unfenced.Load())
		l.bc = nil
	}
}

// Apply partitions one run of records by shard and ships each stretch of
// one shard's records to every owner of that shard — as the bytes that
// arrived: a stretch is one copy of its wire behind each owner's batch
// header, nothing is re-encoded (a hashed hello's seed travels in those
// bytes). It holds the view lock shared: Reshard cannot interleave with
// a run, so a run forwards under exactly one epoch (and its copies are
// fenced before any snapshot of them is cut). Dial failures retry with
// backoff inside Lease, but once a sub-batch has been written a
// connection failure fails the session: the sub-batch (and any earlier
// unfenced forwards on that lease) may or may not have been applied, and
// only the client — which sees its connection die, exactly as when a
// single server crashes — can decide what to re-send. Backends marked
// down are not skipped: reads survive a dead replica, writes do not mask
// one. A batch is only guaranteed applied once a later read round-trips
// on the same session.
func (s *session) Apply(run []transport.Rec, wire []byte) error {
	g := s.g
	g.vmu.RLock()
	defer g.vmu.RUnlock()
	if s.poisoned != nil {
		return s.poisoned
	}
	s.adopt()
	// Bump the epoch before anything is written: once a sub-batch is on
	// the wire its reports may land at any later moment, so no gather
	// whose stamp predates this forward may be served as exact again.
	g.ingestEpoch.Add(1)
	for i := range s.bufs {
		s.bufs[i].Reset()
	}
	lay, shards := s.lay, s.lay.NumShards
	for i, off := 0, 0; i < len(run); {
		sh, j, end := membership.ShardOf(run[i].User, shards), i+1, off+int(run[i].Len)
		for j < len(run) && membership.ShardOf(run[j].User, shards) == sh {
			end += int(run[j].Len)
			j++
		}
		for _, to := range lay.owners(sh) {
			s.bufs[to].Append(j-i, wire[off:end])
		}
		i, off = j, end
	}
	for i := range s.bufs {
		if s.bufs[i].Len() == 0 {
			continue
		}
		bc, err := s.lease(i)
		if err != nil {
			return fmt.Errorf("forwarding to %s: %w", s.name(i), err)
		}
		err = bc.SendRaw(&s.bufs[i])
		if err == nil {
			err = bc.Flush()
		}
		if err != nil {
			s.drop(i)
			return fmt.Errorf("%s connection failed with unacknowledged forwards: %w", s.name(i), err)
		}
		s.links[i].unfenced.Store(true)
	}
	return nil
}

// fetchAttempts bounds how many fresh connections a clean sums fetch
// tries per backend; each attempt behind the first re-dials with the
// pool's full backoff schedule.
const fetchAttempts = 3

// fetched carries one backend's fetch outcome — a frame per owned shard —
// with the connection that produced it, so a hedged race knows which
// connection won. fatal marks a failure over unfenced forwards, fenced a
// round trip that certified some: one step of the ingest epoch.
type fetched struct {
	frames []transport.RawSums
	err    error
	fatal  bool
	fenced bool
	bc     *transport.BackendConn
}

// fetch runs backend i's reads, under the given scope, sequentially on
// the session's lease (the first round trip fences the
// session's prior forwards there), with the full failure discipline:
// FetchTimeout bounds each attempt, an error over unfenced forwards is
// fatal to the session, a clean-session error retries on a fresh
// connection, and a clean-session attempt that outlives HedgeDelay is
// raced against a second one on a freshly leased connection (hedged read
// — safe because the fetch is read-only and idempotent).
func (s *session) fetch(i int, scope transport.Scope) fetched {
	g, l, opts := s.g, s.links[i], s.g.pools.Options()
	bounded := func(bc *transport.BackendConn) fetched {
		r := fetched{bc: bc, frames: make([]transport.RawSums, 0, len(s.lay.reads[i]))}
		if opts.FetchTimeout > 0 {
			bc.SetDeadline(time.Now().Add(opts.FetchTimeout))
		}
		before := bc.BytesRead()
		for _, sh := range s.lay.reads[i] {
			f, err := bc.FetchSums(g.mode, sh, scope)
			if err != nil {
				r.err = err
				return r
			}
			r.frames = append(r.frames, f)
		}
		if g.Metrics != nil {
			g.Metrics.CountSumsFrameBytes(bc.BytesRead() - before)
		}
		if opts.FetchTimeout > 0 {
			r.err = bc.SetDeadline(time.Time{})
		}
		return r
	}
	var lastErr error
	for attempt := 0; attempt < fetchAttempts; attempt++ {
		bc, err := s.lease(i)
		if err != nil {
			lastErr = err
			continue
		}
		var r fetched
		if opts.HedgeDelay > 0 && !l.unfenced.Load() {
			r = s.hedge(i, bc, opts.HedgeDelay, bounded)
		} else {
			r = bounded(bc)
		}
		if r.err != nil {
			s.drop(i)
			if l.unfenced.Load() {
				return fetched{fatal: true, err: fmt.Errorf("%s connection failed with unacknowledged forwards: %w", s.name(i), r.err)}
			}
			lastErr = r.err
			continue
		}
		if r.bc != l.bc {
			// The hedge connection won: the primary lease has a stale
			// in-flight request on it and cannot be reused — replace it.
			l.bc.Close()
			l.bc = r.bc
		}
		r.fenced = s.certify(l)
		return r
	}
	return fetched{err: fmt.Errorf("fetching sums from %s: %w", s.name(i), lastErr)}
}

// hedge races bounded(primary) against a second fetch on a freshly
// leased connection once the primary has been quiet for delay. The
// loser's connection is closed (its response, if any, dies with it), so
// whichever connection this returns is the only one with a completed —
// or no — round-trip outstanding.
func (s *session) hedge(i int, primary *transport.BackendConn, delay time.Duration,
	bounded func(*transport.BackendConn) fetched) fetched {
	ch := make(chan fetched, 2) // one slot per racer: neither send blocks
	go func() { ch <- bounded(primary) }()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r
	case <-timer.C:
	}
	hc, err := s.g.pools.Lease(s.lay.Members[i].Addr)
	if err != nil {
		// No hedge connection to be had; fall back to the primary.
		return <-ch
	}
	go func() { ch <- bounded(hc) }()
	r := <-ch
	if r.err != nil {
		// First finisher failed (either side); the survivor decides.
		r = <-ch
	}
	loser := primary
	if r.bc == primary {
		loser = hc
	}
	if r.err != nil {
		// Both failed: close both; the caller drops the primary lease.
		hc.Close()
	} else {
		loser.Close()
	}
	if m := s.g.Metrics; m != nil {
		m.CountHedge(r.err == nil && r.bc == hc)
	}
	return r
}

// Gather obtains the cluster-wide sums read m is answered from — the
// columns m evaluates, or every column: from the cache, by joining an
// in-flight gather, or by scattering itself (see cache.go).
func (s *session) Gather(m transport.Msg) (transport.Reader, error) {
	e, hit, coalesced, err := s.g.acquireEntry(s, s.g.mode.Scope(m))
	if err != nil {
		return nil, err
	}
	s.g.countCacheOutcome(hit, coalesced)
	return e.Gathered, nil
}

// settle takes the view lock for one gather and returns its release.
// Over unreplicated shards the lock is shared and nothing is fenced: a
// read races other sessions' forwards exactly as it would on one server.
// Replicas can only be compared at one settled prefix of the ingest
// stream — a read racing another session's in-flight forward would see
// one replica with the sub-batch applied and one without, and exact
// divergence detection would misfire on healthy replicas — so over
// K > 1 the lock is exclusive, parking every session between runs, and
// every outstanding forward is fenced first.
func (g *Gateway) settle() (release func()) {
	g.vmu.RLock()
	if g.lay.K == 1 {
		return g.vmu.RUnlock
	}
	g.vmu.RUnlock()
	g.vmu.Lock()
	g.fenceSessions()
	return g.vmu.Unlock
}

// scatter is one scatter/gather round under the given scope: it fetches
// every live backend's copy of every shard it owns, in parallel across
// backends, verifies the copies of each shard agree by exact integer
// comparison, and folds one frame per shard in shard order — the fixed
// order that keeps answers bit-for-bit — into the transport.Gathered
// every reader of this gather shares. The view lock is released once
// that immutable state exists.
//
// A fetch that fails on a lease carrying unfenced forwards fails the
// session: retrying on a fresh connection would answer — and so fence —
// a query whose preceding forwards may have died with the backend. A
// backend that fails clean (after riding out retries and re-dials) is
// marked down for the session when every shard it owns was answered by
// another owner; a shard nobody answered fails the read.
func (s *session) scatter(scope transport.Scope) (*cacheEntry, error) {
	g := s.g
	defer g.settle()()
	if s.poisoned != nil {
		return nil, s.poisoned
	}
	s.adopt()
	// The epoch is loaded before the first fetch and, over replicas, after
	// the fences that advance it.
	lay, found, start := s.lay, g.ingestEpoch.Load(), time.Now()
	results := make([]fetched, len(s.links))
	var wg sync.WaitGroup
	for i, l := range s.links {
		if l.down != nil || len(lay.reads[i]) == 0 {
			results[i].err = l.down
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			if results[i] = s.fetch(i, scope); results[i].err == nil && g.Metrics != nil {
				g.Metrics.ObserveScatter(i, time.Since(start))
			}
		}(i)
	}
	wg.Wait()
	var own uint64 // epoch steps that were this gather's own fences
	for _, r := range results {
		if r.fatal {
			return nil, r.err
		}
		if r.fenced {
			own++
		}
	}
	chosen := make([]transport.RawSums, lay.NumShards)
	next := make([]int, len(results)) // how many of each backend's frames are taken
	for sh := range chosen {
		owners, first, live := lay.owners(sh), 0, 0
		var cause error
		for _, i := range owners {
			if results[i].err != nil {
				cause = results[i].err
				continue
			}
			f := results[i].frames[next[i]]
			next[i]++
			if live++; live == 1 {
				first, chosen[sh] = i, f
			} else if !chosen[sh].Equal(f) {
				g.divergences.Add(1)
				return nil, fmt.Errorf("replica divergence on shard %d: members %s and %s disagree on raw sums",
					sh, lay.Members[first].ID, lay.Members[i].ID)
			}
		}
		if live == 0 {
			return nil, fmt.Errorf("no live replica for shard %d (all %d owners down): %w", sh, len(owners), cause)
		}
		if live < lay.K {
			g.shortReads.Add(1)
		}
	}
	for i, r := range results {
		if l := s.links[i]; r.err != nil && l.down == nil {
			if l.down = r.err; g.ErrorLog != nil {
				g.ErrorLog(fmt.Errorf("cluster: gather skipping a dead replica: %w", r.err))
			}
		}
	}
	fetchedAt := time.Now()
	gathered, err := transport.NewGathered(g.mode, chosen)
	if err != nil {
		return nil, err
	}
	if m := g.Metrics; m != nil {
		m.ObserveGather(scope, fetchedAt.Sub(start), time.Since(fetchedAt))
	}
	// The entry is stamped with the epoch the gather left if it can prove
	// it: the epoch is monotone and this session's fences advanced it own
	// times, so it reads found + own only if nothing else moved it since
	// found was loaded. Otherwise the entry keeps found, which is already
	// stale (see cache.go).
	stamp := found
	if left := found + own; g.ingestEpoch.Load() == left {
		stamp = left
	}
	return &cacheEntry{Gathered: gathered, stamp: stamp, filled: time.Now()}, nil
}
