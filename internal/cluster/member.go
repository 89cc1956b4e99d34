package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtf/internal/dyadic"
	"rtf/internal/membership"
	"rtf/internal/transport"
)

// MemberGateway is the dynamic-membership counterpart of Gateway: it
// fronts a set of membership-mode rtf-serve backends under a versioned
// cluster view (membership.View). Users hash statically onto virtual
// shards; rendezvous hashing places each shard on K member backends, so
// ingest is K-way replicated (a sub-batch is written to every owner of
// its shard) and queries are quorum reads (each shard's raw integer
// sums are fetched from its live owners, compared exactly, and folded
// in fixed shard order) — the answer stays bit-for-bit the answer of a
// single serial server fed the same reports, and survives the death of
// any single replica.
//
// The view changes through Reshard, which runs an epoch fence: it
// blocks new client batches (sessions take the view lock shared per
// batch), round-trips a fence on every session lease that carries
// unacknowledged forwards (so everything forwarded so far is applied at
// its source before any snapshot is cut), ships each moved shard's
// serialized state from an old owner to its new owner, pushes the new
// view to every member, and only then installs it. Rendezvous placement
// keeps the moved set near the minimum: adding a member moves about
// S·K/N of the S·K shard replicas, nothing else.
type MemberGateway struct {
	// Server carries the listener lifecycle and the ErrorLog, Metrics
	// and Queue fields, exactly as on Gateway: a shed batch never
	// reaches any member.
	*transport.Server

	rc   *transport.ReplicaClient
	mode transport.Mode

	// vmu is the epoch fence: sessions hold it shared for the duration
	// of one ingest run, Reshard holds it exclusively. While Reshard
	// runs, every session is parked between runs, so its backend
	// leases are quiescent and the resharder may round-trip fences on
	// them.
	vmu  sync.RWMutex
	view membership.View

	// smu guards the session registry Reshard fences.
	smu      sync.Mutex
	sessions map[*memberSession]struct{}

	transfers   atomic.Int64 // shard snapshots shipped by reshards
	divergences atomic.Int64 // quorum reads that found replica mismatch
	shortReads  atomic.Int64 // shards answered by fewer than K replicas
}

// NewMember builds a Boolean member gateway for horizon d and estimator
// scale over an initial member set: numShards virtual shards, each
// placed on k of the members by rendezvous hashing, at epoch 1.
func NewMember(d int, scale float64, numShards, k int, members []membership.Member, rc *transport.ReplicaClient) (*MemberGateway, error) {
	return newMember(d, transport.BoolMode(d, scale), numShards, k, members, rc)
}

// NewMemberDomain builds a domain-mode member gateway: horizon d,
// domain size m, and the Boolean mechanism's estimator scale.
func NewMemberDomain(d, m int, scale float64, numShards, k int, members []membership.Member, rc *transport.ReplicaClient) (*MemberGateway, error) {
	if m < 2 {
		return nil, fmt.Errorf("cluster: domain size m=%d must be at least 2", m)
	}
	return newMember(d, transport.DomainMode(d, m, scale), numShards, k, members, rc)
}

func newMember(d int, mode transport.Mode, numShards, k int, members []membership.Member, rc *transport.ReplicaClient) (*MemberGateway, error) {
	if !dyadic.IsPow2(d) {
		return nil, fmt.Errorf("cluster: d=%d not a power of two", d)
	}
	v := membership.View{Epoch: 1, K: k, NumShards: numShards, Members: members}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: initial view: %w", err)
	}
	g := &MemberGateway{rc: rc, mode: mode, view: v.Clone(), sessions: make(map[*memberSession]struct{})}
	g.Server = transport.NewServer(mode, transport.MemberLabel("member", mode), g.openSession, rc.Close)
	return g, nil
}

// Client returns the gateway's replica client.
func (g *MemberGateway) Client() *transport.ReplicaClient { return g.rc }

// View returns the current cluster view.
func (g *MemberGateway) View() membership.View {
	g.vmu.RLock()
	defer g.vmu.RUnlock()
	return g.view.Clone()
}

// Epoch returns the current view's epoch.
func (g *MemberGateway) Epoch() uint64 {
	g.vmu.RLock()
	defer g.vmu.RUnlock()
	return g.view.Epoch
}

// TransfersTotal counts the shard snapshots shipped by reshards so far.
func (g *MemberGateway) TransfersTotal() int64 { return g.transfers.Load() }

// Divergences counts quorum reads that found replicas in exact-integer
// disagreement.
func (g *MemberGateway) Divergences() int64 { return g.divergences.Load() }

// ShortReads counts shards answered by fewer than K live replicas.
func (g *MemberGateway) ShortReads() int64 { return g.shortReads.Load() }

// AnnounceView pushes the current view to every member, so freshly
// started backends learn their epoch and owned-shard set. Pushes ride
// the replica client's dial backoff; the first member that cannot be
// reached fails the announce.
func (g *MemberGateway) AnnounceView() error {
	v := g.View()
	for _, mem := range v.Members {
		bc, err := g.rc.Lease(mem.Addr)
		if err != nil {
			return fmt.Errorf("cluster: announcing view to %s: %w", mem.ID, err)
		}
		err = bc.PushView(v)
		g.rc.Release(mem.Addr, bc, err == nil)
		if err != nil {
			return fmt.Errorf("cluster: announcing view to %s: %w", mem.ID, err)
		}
	}
	return nil
}

// ReshardResult reports what a Reshard did.
type ReshardResult struct {
	// Epoch is the new view's epoch.
	Epoch uint64 `json:"epoch"`
	// Transfers is the number of shard snapshots shipped (one per
	// (shard, new owner) pair the plan moved).
	Transfers int `json:"transfers"`
	// Members and K describe the new view.
	Members int `json:"members"`
	K       int `json:"k"`
}

// Reshard installs a new member set (and replication factor) as the
// next epoch. Under the exclusive view lock it: fences every session
// lease carrying unacknowledged forwards, so all forwarded ingest is
// applied at its source first (a fence failure poisons that session —
// its forwards are indeterminate, exactly as when a backend dies under
// a plain Gateway — but the reshard proceeds); computes the rendezvous
// transfer plan; ships each moved shard's serialized state from the
// first reachable old owner to its new owner; pushes the new view to
// every member of it; and installs the view. On any transfer or push
// failure the old view stays installed and the error is returned —
// already-installed shard copies are harmless, since no query reads
// them until the view switches.
func (g *MemberGateway) Reshard(members []membership.Member, k int) (ReshardResult, error) {
	g.vmu.Lock()
	defer g.vmu.Unlock()
	next := membership.View{
		Epoch:     g.view.Epoch + 1,
		K:         k,
		NumShards: g.view.NumShards,
		Members:   members,
	}
	next = next.Clone()
	if err := next.Validate(); err != nil {
		return ReshardResult{}, fmt.Errorf("cluster: reshard view: %w", err)
	}

	g.fenceSessions()

	plan := membership.Plan(g.view, next)
	for _, tr := range plan {
		state, err := g.fetchShardState(g.view, tr)
		if err != nil {
			return ReshardResult{}, err
		}
		dst, ok := next.Member(tr.Dst)
		if !ok {
			return ReshardResult{}, fmt.Errorf("cluster: transfer destination %s not in new view", tr.Dst)
		}
		if err := g.installShard(dst, tr.Shard, state); err != nil {
			return ReshardResult{}, err
		}
		g.transfers.Add(1)
	}

	for _, mem := range next.Members {
		bc, err := g.rc.Lease(mem.Addr)
		if err != nil {
			return ReshardResult{}, fmt.Errorf("cluster: pushing view to %s: %w", mem.ID, err)
		}
		err = bc.PushView(next)
		g.rc.Release(mem.Addr, bc, err == nil)
		if err != nil {
			return ReshardResult{}, fmt.Errorf("cluster: pushing view to %s: %w", mem.ID, err)
		}
	}

	// Drop pools for members that left; their addresses may be gone.
	present := make(map[string]bool, len(next.Members))
	for _, mem := range next.Members {
		present[mem.Addr] = true
	}
	for _, mem := range g.view.Members {
		if !present[mem.Addr] {
			g.rc.Drop(mem.Addr)
		}
	}
	g.view = next
	return ReshardResult{Epoch: next.Epoch, Transfers: len(plan), Members: len(next.Members), K: next.K}, nil
}

// fenceSessions round-trips a fence on every session lease carrying
// unacknowledged forwards. The caller must hold the exclusive view
// lock: every session is then parked between batches, so its leases
// are quiescent and safe to round-trip on.
func (g *MemberGateway) fenceSessions() {
	g.smu.Lock()
	sessions := make([]*memberSession, 0, len(g.sessions))
	for s := range g.sessions {
		sessions = append(sessions, s)
	}
	g.smu.Unlock()
	for _, s := range sessions {
		s.fenceForReshard()
	}
}

// fetchShardState cuts the shard's snapshot from the first reachable
// source in the transfer's old-owner list (IDs resolved against the
// old view).
func (g *MemberGateway) fetchShardState(old membership.View, tr membership.Transfer) ([]byte, error) {
	var lastErr error
	for _, id := range tr.Sources {
		src, ok := old.Member(id)
		if !ok {
			continue
		}
		bc, err := g.rc.Lease(src.Addr)
		if err != nil {
			lastErr = err
			continue
		}
		state, err := bc.FetchShardState(tr.Shard)
		g.rc.Release(src.Addr, bc, err == nil)
		if err != nil {
			lastErr = err
			continue
		}
		return state, nil
	}
	return nil, fmt.Errorf("cluster: no source for shard %d (tried %d): %w", tr.Shard, len(tr.Sources), lastErr)
}

// installShard ships a shard snapshot to its new owner and waits for
// the install ack.
func (g *MemberGateway) installShard(dst membership.Member, shard int, state []byte) error {
	bc, err := g.rc.Lease(dst.Addr)
	if err != nil {
		return fmt.Errorf("cluster: installing shard %d on %s: %w", shard, dst.ID, err)
	}
	err = bc.TransferShard(shard, state)
	g.rc.Release(dst.Addr, bc, err == nil)
	if err != nil {
		return fmt.Errorf("cluster: installing shard %d on %s: %w", shard, dst.ID, err)
	}
	return nil
}

// memberLease is one session's connection to one member, keyed by the
// member ID it was opened for (the address travels along so the lease
// can be released even after the member leaves the view).
type memberLease struct {
	addr string
	bc   *transport.BackendConn
}

// memberSession is the per-client-connection state of a member gateway:
// one leased connection per member, acquired lazily, plus the session's
// adopted view and the per-shard owner table derived from it. A session
// holds the gateway's view lock shared for the duration of each batch;
// between batches it is quiescent, which is when Reshard may fence its
// leases (and poison it on a fence failure).
type memberSession struct {
	g    *MemberGateway
	view membership.View
	// owners[sh] is the view's owner list for shard sh, resolved once
	// per adopted epoch.
	owners [][]int

	// lmu guards the maps below against the parallel per-member fetches
	// of a quorum gather.
	lmu    sync.Mutex
	leases map[string]*memberLease
	// unfenced[id] records forwards on the member's lease not yet
	// covered by a successful fetch; losing such a lease fails the
	// session, as on Gateway.
	unfenced map[string]bool
	// down caches members whose clean fetch failed: for the rest of
	// this session they are never queried again (their shards answer
	// from surviving replicas) — a dead replica must not stall every
	// subsequent query on redial timeouts.
	down map[string]bool
	bufs map[string]*transport.RawBatch

	// poisoned is set by the resharder when a fence on this session's
	// unfenced forwards failed: the forwards are indeterminate and the
	// session must surface the error rather than certify them later.
	poisoned error
}

// openSession registers a new client connection's session under the
// current view.
func (g *MemberGateway) openSession(int) transport.Session {
	s := &memberSession{
		g:        g,
		leases:   make(map[string]*memberLease),
		unfenced: make(map[string]bool),
		down:     make(map[string]bool),
		bufs:     make(map[string]*transport.RawBatch),
	}
	s.adopt(g.View())
	g.smu.Lock()
	g.sessions[s] = struct{}{}
	g.smu.Unlock()
	return s
}

// Close deregisters the session and releases its leases. Closing races
// no resharder: either the session is registered (resharder fences it)
// or it is gone from the registry before the resharder collects
// sessions.
func (s *memberSession) Close(healthy bool) {
	s.g.smu.Lock()
	delete(s.g.sessions, s)
	s.g.smu.Unlock()
	s.lmu.Lock()
	for id, l := range s.leases {
		s.g.rc.Release(l.addr, l.bc, healthy && !s.unfenced[id])
		delete(s.leases, id)
	}
	s.lmu.Unlock()
}

// adopt installs a view into the session: owner table resolved, leases
// to members no longer in the view (or re-addressed) released.
func (s *memberSession) adopt(v membership.View) {
	s.view = v
	s.owners = make([][]int, v.NumShards)
	for sh := range s.owners {
		s.owners[sh] = v.Owners(sh)
	}
	s.lmu.Lock()
	for id, l := range s.leases {
		mem, ok := v.Member(id)
		if ok && mem.Addr == l.addr {
			continue
		}
		// Reshard fenced everything before the epoch switched, so the
		// lease carries nothing unfenced (a failed fence poisoned the
		// session before it could adopt).
		s.g.rc.Release(l.addr, l.bc, true)
		delete(s.leases, id)
		delete(s.unfenced, id)
	}
	for id := range s.down {
		if _, ok := v.Member(id); !ok {
			delete(s.down, id)
		}
	}
	s.lmu.Unlock()
}

// lease returns the session's connection to the member, dialing one if
// needed.
func (s *memberSession) lease(mem membership.Member) (*transport.BackendConn, error) {
	s.lmu.Lock()
	l := s.leases[mem.ID]
	s.lmu.Unlock()
	if l != nil {
		return l.bc, nil
	}
	bc, err := s.g.rc.Lease(mem.Addr)
	if err != nil {
		return nil, err
	}
	s.lmu.Lock()
	s.leases[mem.ID] = &memberLease{addr: mem.Addr, bc: bc}
	s.lmu.Unlock()
	return bc, nil
}

// drop closes and forgets a lease that saw an error.
func (s *memberSession) drop(id string) {
	s.lmu.Lock()
	l := s.leases[id]
	delete(s.leases, id)
	s.lmu.Unlock()
	if l != nil {
		s.g.rc.Release(l.addr, l.bc, false)
	}
}

// fenceForReshard round-trips a fence on every lease carrying unfenced
// forwards. Called via fenceSessions under the exclusive view lock —
// by Reshard before cutting snapshots and by Gather before a quorum
// read — so the session is parked between batches and its
// leases are quiescent. A fence failure poisons the session (its
// forwards are indeterminate) but fencing continues on the other
// leases — every member copy that can still be confirmed applied
// should be.
func (s *memberSession) fenceForReshard() {
	s.lmu.Lock()
	type pending struct {
		id string
		l  *memberLease
	}
	var todo []pending
	for id, l := range s.leases {
		if s.unfenced[id] {
			todo = append(todo, pending{id, l})
		}
	}
	s.lmu.Unlock()
	for _, p := range todo {
		// The fence is the round-trip; one interval sum is the cheapest frame.
		if _, err := p.l.bc.FetchSums(s.g.mode, 0, transport.Scope{L: 1, R: 1}); err != nil {
			if s.poisoned == nil {
				s.poisoned = fmt.Errorf("member %s connection failed with unacknowledged forwards during a fence: %w", p.id, err)
			}
			s.drop(p.id)
			continue
		}
		s.lmu.Lock()
		s.unfenced[p.id] = false
		s.lmu.Unlock()
	}
}

// forward partitions one run of records by virtual shard and ships each
// stretch of one shard's records — as the bytes that arrived, see
// session.Apply — to every owner of that shard: K-way replicated ingest.
// A member write failure fails the session exactly as on Gateway: the
// sub-batch is indeterminate there, and only the client can decide what
// to re-send. Down members are not skipped; ingest requires every
// replica to accept (reads survive dead replicas, writes do not mask
// them).
func (s *memberSession) forward(run []transport.Rec, wire []byte) error {
	for _, buf := range s.bufs {
		buf.Reset()
	}
	shards := s.view.NumShards
	for i, off := 0, 0; i < len(run); {
		sh, j, end := membership.ShardOf(run[i].User, shards), i+1, off+int(run[i].Len)
		for j < len(run) && membership.ShardOf(run[j].User, shards) == sh {
			end += int(run[j].Len)
			j++
		}
		for _, oi := range s.owners[sh] {
			id := s.view.Members[oi].ID
			buf := s.bufs[id]
			if buf == nil {
				buf = new(transport.RawBatch)
				s.bufs[id] = buf
			}
			buf.Append(j-i, wire[off:end])
		}
		i, off = j, end
	}
	for _, mem := range s.view.Members {
		buf := s.bufs[mem.ID]
		if buf == nil || buf.Len() == 0 {
			continue
		}
		bc, err := s.lease(mem)
		if err != nil {
			return fmt.Errorf("forwarding to member %s: %w", mem.ID, err)
		}
		err = bc.SendRaw(buf)
		if err == nil {
			err = bc.Flush()
		}
		if err != nil {
			s.drop(mem.ID)
			return fmt.Errorf("member %s connection failed with unacknowledged forwards: %w", mem.ID, err)
		}
		s.lmu.Lock()
		s.unfenced[mem.ID] = true
		s.lmu.Unlock()
	}
	return nil
}

// memberFetchAttempts bounds fresh connections per member for a clean
// quorum fetch; each retry re-dials with the replica client's backoff.
const memberFetchAttempts = 2

// fetchMember fetches every owned shard of one member, under the given
// scope, sequentially on its session lease (the first fetch fences prior
// forwards). A failure over unfenced forwards is fatal to the session; a
// clean failure retries once on a fresh connection and then reports the
// member down.
func (s *memberSession) fetchMember(mem membership.Member, shards []int, scope transport.Scope) (frames []transport.RawSums, fatal bool, err error) {
	var lastErr error
	for attempt := 0; attempt < memberFetchAttempts; attempt++ {
		bc, err := s.lease(mem)
		if err != nil {
			lastErr = err
			continue
		}
		frames = frames[:0]
		ok := true
		before := bc.BytesRead()
		for _, sh := range shards {
			f, err := bc.FetchSums(s.g.mode, sh, scope)
			if err != nil {
				s.lmu.Lock()
				unfenced := s.unfenced[mem.ID]
				s.lmu.Unlock()
				s.drop(mem.ID)
				if unfenced {
					return nil, true, fmt.Errorf("member %s connection failed with unacknowledged forwards: %w", mem.ID, err)
				}
				lastErr = err
				ok = false
				break
			}
			frames = append(frames, f)
		}
		if !ok {
			continue
		}
		s.lmu.Lock()
		s.unfenced[mem.ID] = false
		s.lmu.Unlock()
		if m := s.g.Metrics; m != nil {
			m.CountSumsFrameBytes(bc.BytesRead() - before)
		}
		return frames, false, nil
	}
	return nil, false, fmt.Errorf("member %s unreachable: %w", mem.ID, lastErr)
}

// quorumGather fetches every live owner's copy of every shard, under the
// given scope, in parallel across members (sequential per member, so
// each member's first fetch fences that member's prior forwards),
// verifies the copies of each shard agree by exact integer comparison,
// and returns one chosen frame per shard in shard order — the fixed fold
// order that keeps answers bit-for-bit.
func (s *memberSession) quorumGather(scope transport.Scope) ([]transport.RawSums, error) {
	v := &s.view
	type result struct {
		frames []transport.RawSums
		fatal  bool
		err    error
	}
	ownedBy := make([][]int, len(v.Members))
	for sh, owners := range s.owners {
		for _, oi := range owners {
			ownedBy[oi] = append(ownedBy[oi], sh)
		}
	}
	results := make([]result, len(v.Members))
	var wg sync.WaitGroup
	for i := range v.Members {
		s.lmu.Lock()
		isDown := s.down[v.Members[i].ID]
		s.lmu.Unlock()
		if isDown || len(ownedBy[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			frames, fatal, err := s.fetchMember(v.Members[i], ownedBy[i], scope)
			results[i] = result{frames: frames, fatal: fatal, err: err}
			if err == nil && s.g.Metrics != nil {
				s.g.Metrics.ObserveScatter(i, time.Since(start))
			}
		}(i)
	}
	wg.Wait()

	votes := make([][]transport.RawSums, v.NumShards) // per-shard frames, owner order
	voters := make([][]int, v.NumShards)              // the member index behind each vote
	for i := range v.Members {
		r := &results[i]
		if len(ownedBy[i]) == 0 {
			continue
		}
		if r.fatal {
			return nil, r.err
		}
		if r.err != nil {
			// Clean failure: mark down for the rest of the session and
			// answer its shards from the surviving replicas.
			s.lmu.Lock()
			s.down[v.Members[i].ID] = true
			s.lmu.Unlock()
			if s.g.ErrorLog != nil {
				s.g.ErrorLog(fmt.Errorf("cluster: quorum read skipping member: %w", r.err))
			}
			continue
		}
		if r.frames == nil {
			// Member was already down when the gather started.
			continue
		}
		for j, sh := range ownedBy[i] {
			votes[sh] = append(votes[sh], r.frames[j])
			voters[sh] = append(voters[sh], i)
		}
	}

	chosen := make([]transport.RawSums, v.NumShards)
	for sh := 0; sh < v.NumShards; sh++ {
		vs := votes[sh]
		if len(vs) == 0 {
			return nil, fmt.Errorf("no live replica for shard %d (all %d owners down)", sh, len(s.owners[sh]))
		}
		if len(vs) < v.K {
			s.g.shortReads.Add(1)
		}
		for j := 1; j < len(vs); j++ {
			if !vs[0].Equal(vs[j]) {
				s.g.divergences.Add(1)
				return nil, fmt.Errorf("replica divergence on shard %d: members %s and %s disagree on raw sums",
					sh, v.Members[voters[sh][0]].ID, v.Members[voters[sh][j]].ID)
			}
		}
		chosen[sh] = vs[0]
	}
	return chosen, nil
}

// Apply ships one run of ingest messages under the shared view lock:
// Reshard cannot interleave with a run, so a run forwards under exactly
// one epoch (and its copies are fenced before any snapshot of them is
// cut).
func (s *memberSession) Apply(run []transport.Rec, wire []byte) error {
	g := s.g
	g.vmu.RLock()
	defer g.vmu.RUnlock()
	if s.poisoned != nil {
		return s.poisoned
	}
	if s.view.Epoch != g.view.Epoch {
		s.adopt(g.view.Clone())
	}
	return s.forward(run, wire)
}

// Gather runs a fenced quorum read: it takes the exclusive view lock —
// parking every ingest session between runs — and fences every
// outstanding forward, so all replicas sit at the same settled prefix
// of the ingest stream. Without the global fence, a read racing another
// session's in-flight forward would see one replica with the sub-batch
// applied and one without, and exact-integer divergence detection would
// misfire on healthy replicas. The lock is held until the answer is
// done. Only the columns read m evaluates are fetched and compared.
func (s *memberSession) Gather(m transport.Msg) (transport.Reader, func(), error) {
	g := s.g
	g.vmu.Lock()
	g.fenceSessions()
	if s.poisoned != nil {
		g.vmu.Unlock()
		return nil, nil, s.poisoned
	}
	if s.view.Epoch != g.view.Epoch {
		s.adopt(g.view.Clone())
	}
	scope, start := g.mode.Scope(m), time.Now()
	frames, err := s.quorumGather(scope)
	if err != nil {
		g.vmu.Unlock()
		return nil, nil, err
	}
	fetched := time.Now()
	gathered, err := transport.NewGathered(g.mode, frames)
	if err != nil {
		g.vmu.Unlock()
		return nil, nil, err
	}
	if mt := g.Metrics; mt != nil {
		mt.ObserveGather(scope, fetched.Sub(start), time.Since(fetched))
	}
	return gathered, g.vmu.Unlock, nil
}
