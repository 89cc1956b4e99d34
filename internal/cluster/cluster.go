// Package cluster implements horizontal scale-out of the aggregation
// service: a Gateway speaks the same wire protocol as rtf-serve on its
// front, hash-partitions ingested users across N rtf-serve backends
// (user id mod N) on its back, and answers every query shape by
// scatter/gather — it fetches each backend's raw per-interval bit sums
// (MsgSums → SumsFrame), adds them up and estimates from an accumulator
// built over the total.
//
// Merging raw integer sums, not scaled float answers, is what keeps the
// cluster exact: the dyadic accumulator is additive (Σ over backends of
// per-interval int64 sums equals the single-server sums), and the
// estimator is a fixed linear function of those integers evaluated in a
// fixed order, so a gateway answer is bit-for-bit the answer of one
// serial server fed every backend's reports. Averaging or summing the
// backends' float estimates would instead pick up order-dependent
// rounding.
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
// rather than failing them.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/transport"
)

// Gateway fronts a partitioned set of rtf-serve backends with the
// rtf-serve wire protocol of its Mode: batched ingestion, every query
// shape, and raw-sums requests (so gateways stack: a gateway is itself
// a valid backend). It is the serving core (transport.Server) with
// sessions whose Apply partitions and forwards and whose Gather is a
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

	client *transport.ClusterClient
	mode   transport.Mode

	// AnswerCacheTTL, when positive, opts the gateway into bounded-
	// staleness reads: a cached gather younger than this may answer a
	// clean session's query even when ingest has advanced since it was
	// filled. Zero (the default) keeps the cache exact — an entry is
	// served only when the ingest epoch proves it bit-for-bit equal to a
	// fresh scatter/gather. See cache.go.
	AnswerCacheTTL time.Duration

	// ingestEpoch advances whenever the cluster-wide answer could have
	// changed: a forward starting, a fence certifying forwards as
	// applied, or an unfenced lease dying. Cache entries are stamped
	// with it; see cache.go for the exactness argument.
	ingestEpoch atomic.Uint64
	// cache is the version-stamped gathered-sums cache and the
	// single-flight latch coalescing concurrent identical gathers.
	cache answerCache
}

// New builds a Boolean gateway for horizon d and estimator scale over
// the given cluster client.
func New(d int, scale float64, client *transport.ClusterClient) *Gateway {
	return newGateway(d, transport.BoolMode(d, scale), client)
}

// NewDomain builds a gateway fronting domain-mode backends: horizon d,
// domain size m, and the Boolean mechanism's estimator scale (the
// per-item scale m × scale is computed identically on every node).
func NewDomain(d, m int, scale float64, client *transport.ClusterClient) *Gateway {
	if m < 2 {
		panic(fmt.Sprintf("cluster: domain size m=%d must be at least 2", m))
	}
	return newGateway(d, transport.DomainMode(d, m, scale), client)
}

// NewHashedDomain builds a gateway fronting hashed-domain backends:
// horizon d, the shared domain encoding (catalogue size, bucket count,
// epoch hash seed — checked by every backend on each gather), and the
// Boolean mechanism's estimator scale. Panics on an invalid or
// non-hashed encoding, mirroring NewDomain's contract.
func NewHashedDomain(d int, enc hh.DomainEncoding, scale float64, client *transport.ClusterClient) *Gateway {
	if err := enc.Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	if !enc.Hashed() {
		panic(fmt.Sprintf("cluster: encoding %q is not hashed", enc.Name))
	}
	return newGateway(d, transport.HashedMode(d, enc, scale), client)
}

func newGateway(d int, mode transport.Mode, client *transport.ClusterClient) *Gateway {
	if !dyadic.IsPow2(d) {
		panic(fmt.Sprintf("cluster: d=%d not a power of two", d))
	}
	g := &Gateway{client: client, mode: mode}
	g.Server = transport.NewServer(mode, mode.Name(), func(int) transport.Session {
		n := client.N()
		return &session{
			g:        g,
			leases:   make([]*transport.BackendConn, n),
			bufs:     make([]transport.RawBatch, n),
			unfenced: make([]bool, n),
		}
	}, client.Close)
	return g
}

// Client returns the gateway's cluster client.
func (g *Gateway) Client() *transport.ClusterClient { return g.client }

// session is the per-client-connection state: one leased backend
// connection per partition, acquired lazily. Using one connection per
// backend for the whole session makes the backend's in-order frame
// handling a fence: a sums fetch sees everything this session forwarded
// before it.
type session struct {
	g      *Gateway
	leases []*transport.BackendConn
	// bufs are the reused per-backend forward frames.
	bufs []transport.RawBatch
	// unfenced[i] records that the current lease on backend i carries
	// forwards not yet covered by a successful fetch. Losing such a
	// lease makes those forwards indeterminate, so the session must
	// fail rather than silently re-dial and certify them with a fence.
	unfenced []bool
}

func (s *session) lease(i int) (*transport.BackendConn, error) {
	if s.leases[i] == nil {
		bc, err := s.g.client.Lease(i)
		if err != nil {
			return nil, err
		}
		s.leases[i] = bc
	}
	return s.leases[i], nil
}

// drop closes and forgets a lease that saw an error. Losing a lease
// with unfenced forwards advances the ingest epoch: the forwards may
// still land on the backend without any fence ever recording it, so
// cache entries gathered before the drop can no longer be proven fresh.
func (s *session) drop(i int) {
	if s.leases[i] != nil {
		if s.unfenced[i] {
			s.g.ingestEpoch.Add(1)
		}
		s.g.client.Release(i, s.leases[i], false)
		s.leases[i] = nil
	}
}

// Close releases every lease; healthy connections return to the pool.
func (s *session) Close(healthy bool) {
	for i, bc := range s.leases {
		if bc != nil {
			s.g.client.Release(i, bc, healthy)
			s.leases[i] = nil
		}
	}
}

// fetchAttempts bounds how many fresh connections a clean sums fetch
// tries per backend; each attempt behind the first re-dials with the
// cluster client's full backoff schedule.
const fetchAttempts = 3

// fetchResult carries one fetch outcome together with the connection
// that produced it, so a hedged race knows which connection won.
type fetchResult struct {
	f   transport.RawSums
	err error
	bc  *transport.BackendConn
}

// fetchBackend runs one fenced sums fetch against backend i, under the
// given scope, with the session's full failure discipline: FetchTimeout
// bounds each attempt, an error over unfenced forwards fails the
// session, a clean-session error retries on a fresh connection, and a
// clean-session attempt that outlives HedgeDelay is raced against a
// second fetch on a freshly leased connection (hedged read — safe
// because the fetch is read-only and idempotent).
func (s *session) fetchBackend(i int, scope transport.Scope) (transport.RawSums, error) {
	opts := s.g.client.Options()
	bounded := func(bc *transport.BackendConn) fetchResult {
		if opts.FetchTimeout > 0 {
			bc.SetDeadline(time.Now().Add(opts.FetchTimeout))
		}
		before := bc.BytesRead()
		f, err := bc.FetchSums(s.g.mode, -1, scope)
		if m := s.g.Metrics; m != nil && err == nil {
			m.CountSumsFrameBytes(bc.BytesRead() - before)
		}
		if err == nil && opts.FetchTimeout > 0 {
			err = bc.SetDeadline(time.Time{})
		}
		return fetchResult{f: f, err: err, bc: bc}
	}
	var lastErr error
	for attempt := 0; attempt < fetchAttempts; attempt++ {
		bc, err := s.lease(i)
		if err != nil {
			lastErr = err
			continue
		}
		var r fetchResult
		if opts.HedgeDelay > 0 && !s.unfenced[i] {
			r = s.hedge(i, bc, opts.HedgeDelay, bounded)
		} else {
			r = bounded(bc)
		}
		if r.err != nil {
			s.drop(i)
			if s.unfenced[i] {
				return transport.RawSums{}, fmt.Errorf("backend %d connection failed with unacknowledged forwards: %w", i, r.err)
			}
			lastErr = r.err
			continue
		}
		if r.bc != s.leases[i] {
			// The hedge connection won: the primary lease has a stale
			// in-flight request on it and cannot be reused — replace it.
			s.leases[i].Close()
			s.leases[i] = r.bc
		}
		if s.unfenced[i] {
			// Everything forwarded on this lease is now certifiably
			// applied — the cluster-wide answer may have changed, so
			// cache entries gathered before this fence go stale.
			s.unfenced[i] = false
			s.g.ingestEpoch.Add(1)
		}
		return r.f, nil
	}
	return transport.RawSums{}, fmt.Errorf("fetching sums from backend %d: %w", i, lastErr)
}

// hedge races bounded(primary) against a second fetch on a freshly
// leased connection once the primary has been quiet for delay. The
// loser's connection is closed (its response, if any, dies with it), so
// whichever connection this returns is the only one with a completed —
// or no — round-trip outstanding.
func (s *session) hedge(i int, primary *transport.BackendConn, delay time.Duration,
	bounded func(*transport.BackendConn) fetchResult) fetchResult {
	ch := make(chan fetchResult, 2) // one slot per racer: neither send blocks
	go func() { ch <- bounded(primary) }()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r
	case <-timer.C:
	}
	hc, err := s.g.client.Lease(i)
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

// Apply partitions one run of records by user mod N and ships each
// non-empty sub-batch to its backend — as the bytes that arrived: each
// stretch of consecutive records bound for one backend is one copy of
// its stretch of wire behind that backend's batch header, nothing is
// re-encoded (a hashed hello's seed travels in those bytes). Dial
// failures retry with backoff inside Lease, but once a sub-batch has
// been written a connection failure fails the session: the sub-batch
// (and any earlier unfenced forwards on that lease) may or may not have
// been applied, and only the client — which sees its connection die,
// exactly as when a single server crashes — can decide what to re-send.
// A batch is only guaranteed applied once a later read round-trips on
// the same session.
func (s *session) Apply(run []transport.Rec, wire []byte) error {
	// Bump the epoch before anything is written: once a sub-batch is on
	// the wire its reports may land at any later moment, so no gather
	// whose stamp predates this forward may be served as exact again.
	s.g.ingestEpoch.Add(1)
	for i := range s.bufs {
		s.bufs[i].Reset()
	}
	for i, off := 0, 0; i < len(run); {
		to, j, end := s.g.client.Route(run[i].User), i+1, off+int(run[i].Len)
		for j < len(run) && s.g.client.Route(run[j].User) == to {
			end += int(run[j].Len)
			j++
		}
		s.bufs[to].Append(j-i, wire[off:end])
		i, off = j, end
	}
	for i := range s.bufs {
		if s.bufs[i].Len() == 0 {
			continue
		}
		bc, err := s.lease(i)
		if err != nil {
			return fmt.Errorf("forwarding to backend %d: %w", i, err)
		}
		err = bc.SendRaw(&s.bufs[i])
		if err == nil {
			err = bc.Flush()
		}
		if err != nil {
			s.drop(i)
			return fmt.Errorf("backend %d connection failed with unacknowledged forwards: %w", i, err)
		}
		s.unfenced[i] = true
	}
	return nil
}

// Gather obtains the cluster-wide sums read m is answered from — the
// columns m evaluates, or every column: from the cache, by joining an
// in-flight gather, or by scattering itself (see cache.go).
func (s *session) Gather(m transport.Msg) (transport.Reader, func(), error) {
	e, hit, coalesced, err := s.g.acquireEntry(s, s.g.mode.Scope(m))
	if err != nil {
		return nil, nil, err
	}
	s.g.countCacheOutcome(hit, coalesced)
	return e.Gathered, nil, nil
}

// scatter is one scatter/gather round: it fetches every backend's raw
// sums under the given scope in parallel (each fetch fencing this
// session's prior forwards on that backend), in backend order, then
// merges and folds them once into the transport.Gathered every reader of
// this gather shares.
//
// A fetch that fails on a lease carrying unfenced forwards fails the
// session: retrying on a fresh connection would answer — and so fence —
// a query whose preceding forwards may have died with the backend.
// With nothing unfenced the fetch is read-only and idempotent, so it
// retries across fresh connections (dials back off inside Lease),
// riding out a backend restart.
func (s *session) scatter(scope transport.Scope) (*cacheEntry, error) {
	n := s.g.client.N()
	frames := make([]transport.RawSums, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			if frames[i], errs[i] = s.fetchBackend(i, scope); errs[i] != nil {
				return
			}
			if m := s.g.Metrics; m != nil {
				m.ObserveScatter(i, time.Since(start))
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	fetched := time.Now()
	gathered, err := transport.NewGathered(s.g.mode, frames)
	if err != nil {
		return nil, err
	}
	if m := s.g.Metrics; m != nil {
		m.ObserveGather(scope, fetched.Sub(start), time.Since(fetched))
	}
	return &cacheEntry{Gathered: gathered}, nil
}
