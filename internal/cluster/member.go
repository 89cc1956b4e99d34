package cluster

import (
	"errors"
	"fmt"
	"slices"

	"rtf/internal/membership"
	"rtf/internal/transport"
)

// This file is how a placement's view changes. Reshard runs an epoch
// fence: it blocks new client batches (sessions take the view lock
// shared per batch), round-trips a fence on every session lease that
// carries unacknowledged forwards (so everything forwarded so far is
// applied at its source before any snapshot is cut), ships each moved
// shard's serialized state from an old owner to its new owner, pushes
// the new view to every member, and only then installs it. Rendezvous
// placement keeps the moved set near the minimum: adding a member moves
// about S·K/N of the S·K shard replicas, nothing else.

// View returns the current cluster view.
func (g *Gateway) View() membership.View {
	g.vmu.RLock()
	defer g.vmu.RUnlock()
	return g.lay.View.Clone()
}

// Epoch returns the current view's epoch.
func (g *Gateway) Epoch() uint64 {
	g.vmu.RLock()
	defer g.vmu.RUnlock()
	return g.lay.Epoch
}

// TransfersTotal counts the shard snapshots shipped by reshards so far.
func (g *Gateway) TransfersTotal() int64 { return g.transfers.Load() }

// Divergences counts gathers that found replicas in exact-integer
// disagreement.
func (g *Gateway) Divergences() int64 { return g.divergences.Load() }

// ShortReads counts shards answered by fewer than K live replicas.
func (g *Gateway) ShortReads() int64 { return g.shortReads.Load() }

// errStatic refuses a view change on a static placement: its backends are
// plain rtf-serve nodes, which hold no per-shard state to hand off.
var errStatic = errors.New("cluster: a static -backends partition map cannot change; front rtf-serve -membership backends with -members to reshard")

// control round-trips one control-plane operation on a pooled connection
// to a member. Dials ride the pool's backoff.
func (g *Gateway) control(mem membership.Member, what string, op func(*transport.BackendConn) error) error {
	bc, err := g.pools.Lease(mem.Addr)
	if err == nil {
		err = op(bc)
		g.pools.Release(mem.Addr, bc, err == nil)
	}
	if err != nil {
		return fmt.Errorf("cluster: %s %s: %w", what, mem.ID, err)
	}
	return nil
}

// pushView ships v to every member of it; the first member that cannot
// be reached, or refuses, fails the push.
func (g *Gateway) pushView(v membership.View, what string) error {
	for _, mem := range v.Members {
		if err := g.control(mem, what, func(bc *transport.BackendConn) error { return bc.PushView(v) }); err != nil {
			return err
		}
	}
	return nil
}

// AnnounceView pushes the current view to every member, so freshly
// started backends learn their epoch and owned-shard set.
func (g *Gateway) AnnounceView() error {
	if g.place.whole {
		return errStatic
	}
	return g.pushView(g.View(), "announcing view to")
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
// it mid-read — but the reshard proceeds); computes the rendezvous
// transfer plan; ships each moved shard's serialized state from the
// first reachable old owner to its new owner; pushes the new view to
// every member of it; and installs the view. On any transfer or push
// failure the old view stays installed and the error is returned —
// already-installed shard copies are harmless, since no query reads
// them until the view switches.
func (g *Gateway) Reshard(members []membership.Member, k int) (ReshardResult, error) {
	if g.place.whole {
		return ReshardResult{}, errStatic
	}
	g.vmu.Lock()
	defer g.vmu.Unlock()
	prev := g.lay.View
	next := membership.View{Epoch: prev.Epoch + 1, K: k, NumShards: prev.NumShards, Members: slices.Clone(members)}
	if err := next.Validate(); err != nil {
		return ReshardResult{}, fmt.Errorf("cluster: reshard view: %w", err)
	}

	g.fenceSessions()

	plan := membership.Plan(prev, next)
	for _, tr := range plan {
		state, err := g.fetchShardState(prev, tr)
		if err != nil {
			return ReshardResult{}, err
		}
		dst, ok := next.Member(tr.Dst)
		if !ok {
			return ReshardResult{}, fmt.Errorf("cluster: transfer destination %s not in new view", tr.Dst)
		}
		err = g.control(dst, fmt.Sprintf("installing shard %d on", tr.Shard),
			func(bc *transport.BackendConn) error { return bc.TransferShard(tr.Shard, state) })
		if err != nil {
			return ReshardResult{}, err
		}
		g.transfers.Add(1)
	}
	if err := g.pushView(next, "pushing view to"); err != nil {
		return ReshardResult{}, err
	}

	// Drop pools for members that left; their addresses may be gone.
	for _, mem := range prev.Members {
		if !slices.ContainsFunc(next.Members, func(m membership.Member) bool { return m.Addr == mem.Addr }) {
			g.pools.Drop(mem.Addr)
		}
	}
	g.lay = g.place.layout(next)
	// The same counters now live elsewhere; nothing gathered from the old
	// owners is provably what the new ones would answer.
	g.ingestEpoch.Add(1)
	return ReshardResult{Epoch: next.Epoch, Transfers: len(plan), Members: len(next.Members), K: next.K}, nil
}

// fenceSessions round-trips a fence on every session lease carrying
// unacknowledged forwards. The caller must hold the exclusive view
// lock: every session is then parked between batches, so its leases
// are quiescent and safe to round-trip on.
func (g *Gateway) fenceSessions() {
	g.smu.Lock()
	sessions := make([]*session, 0, len(g.sessions))
	for s := range g.sessions {
		sessions = append(sessions, s)
	}
	g.smu.Unlock()
	for _, s := range sessions {
		s.fence()
	}
}

// fence round-trips every lease of the session that carries unfenced
// forwards; the cheapest frame is one interval sum of the whole node,
// which a backend hashing under another encoding refuses. A failure
// poisons the session (its forwards are indeterminate) but fencing
// continues on the other leases — every copy that can still be confirmed
// applied should be. Called via fenceSessions only.
func (s *session) fence() {
	for i, l := range s.links {
		if l.bc == nil || !l.unfenced.Load() {
			continue
		}
		if _, err := l.bc.FetchSums(s.g.mode, -1, transport.Scope{L: 1, R: 1}); err != nil {
			if s.poisoned == nil {
				s.poisoned = fmt.Errorf("%s connection failed with unacknowledged forwards during a fence: %w", s.name(i), err)
			}
			s.drop(i)
			continue
		}
		s.certify(l)
	}
}

// fetchShardState cuts the shard's snapshot from the first reachable
// source in the transfer's old-owner list (IDs resolved against the
// old view).
func (g *Gateway) fetchShardState(old membership.View, tr membership.Transfer) (state []byte, err error) {
	for _, id := range tr.Sources {
		src, ok := old.Member(id)
		if !ok {
			continue
		}
		err = g.control(src, fmt.Sprintf("exporting shard %d from", tr.Shard), func(bc *transport.BackendConn) (err error) {
			state, err = bc.FetchShardState(tr.Shard)
			return err
		})
		if err == nil {
			return state, nil
		}
	}
	return nil, fmt.Errorf("cluster: no source for shard %d (tried %d): %w", tr.Shard, len(tr.Sources), err)
}
