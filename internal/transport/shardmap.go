package transport

import (
	"fmt"
	"sync"

	"rtf/internal/membership"
	"rtf/internal/persist"
)

// This file is the backend half of dynamic membership: a membership-
// mode rtf-serve keeps one accumulator per virtual shard (instead of
// one global accumulator), so any shard's state can be exported,
// shipped to a new owner and installed there without disturbing the
// others. Users hash statically onto virtual shards (user mod S);
// rendezvous hashing places shards on members. Queries fold the
// owned shards' raw integer sums in fixed shard order into a fresh
// serial accumulator, so answers stay bit-for-bit identical to a
// single serial server fed the same reports.

// ShardMap keeps one accumulator of its Mode per virtual shard and
// routes every ingested message to its user's shard. It is safe for
// concurrent use: ingestion and reads take a shared lock, shard
// installs take it exclusively (an install REPLACES the shard's
// accumulator — restore folds additively, so installs build a fresh
// accumulator and swap it in; a member that re-gains a shard it once
// held must not double-count its stale copy).
type ShardMap struct {
	mode Mode
	ingestStats

	// imu orders message application and reads against shard installs:
	// apply holds it shared, InstallShard exclusively. The per-shard
	// accumulators are themselves lock-free; this lock only prevents a
	// swap from stranding an in-flight write on a replaced accumulator.
	imu    sync.RWMutex
	shards []State

	// vmu guards the pushed cluster view (bookkeeping only: routing
	// is by the message's user id, queries fold every shard; the view
	// feeds gauges and staleness checks).
	vmu    sync.Mutex
	view   membership.View
	selfID string
}

// NewShardMap builds a membership-mode store with numShards empty
// virtual shards. selfID is this backend's member ID (used to compute
// the owned-shards gauge).
func NewShardMap(mode Mode, numShards int, selfID string) *ShardMap {
	if numShards < 1 || numShards > membership.MaxShards {
		panic(fmt.Sprintf("transport: numShards %d outside [1..%d]", numShards, membership.MaxShards))
	}
	c := &ShardMap{mode: mode, selfID: selfID, shards: make([]State, numShards)}
	for s := range c.shards {
		c.shards[s] = mode.NewState(1)
	}
	return c
}

// Mode implements Store.
func (c *ShardMap) Mode() Mode { return c.mode }

// NumShards returns the virtual-shard count.
func (c *ShardMap) NumShards() int { return len(c.shards) }

// Users implements Store.
func (c *ShardMap) Users() int {
	c.imu.RLock()
	defer c.imu.RUnlock()
	n := 0
	for _, st := range c.shards {
		n += st.Users()
	}
	return n
}

// SendBatch implements Store.
func (c *ShardMap) SendBatch(shard int, ms []Msg) error { return sendBatch(c, shard, ms, false) }

// Apply implements Store, handing each maximal stretch of records bound
// for one virtual shard to that shard's state whole (a user's hello and
// reports travel together, so stretches are long). The connection shard
// is unused: the map routes by user.
func (c *ShardMap) Apply(_ int, run []Rec, _ []byte) error {
	n := len(c.shards)
	var hellos, reports int64
	c.imu.RLock()
	for i := 0; i < len(run); {
		sh := membership.ShardOf(run[i].User, n)
		j := i + 1
		for j < len(run) && membership.ShardOf(run[j].User, n) == sh {
			j++
		}
		h, r := c.shards[sh].Apply(0, run[i:j])
		hellos, reports = hellos+h, reports+r
		i = j
	}
	c.imu.RUnlock()
	c.count(hellos, reports)
	return nil
}

// Answer implements Reader. The shard-scoped control reads — one
// shard's raw sums for a quorum-reading gateway, one shard's serialized
// state for a reshard handoff — answer from that shard alone; every
// other read answers from all shards' sums, gathered under the read's
// scope in fixed shard order.
func (c *ShardMap) Answer(m Msg, e *Encoder, sc *AnswerScratch) (memo, hit bool, err error) {
	scope := c.mode.Scope(m)
	switch m.Type {
	case MsgShardSums:
		return false, false, c.mode.EncodeSums(e, c.ShardSums(m.Shard, scope))
	case MsgShardState:
		// The protocol state encoding — the same bytes the durability
		// snapshots use — is the transfer format of a reshard.
		c.imu.RLock()
		state := c.shards[m.Shard].MarshalState()
		c.imu.RUnlock()
		return false, false, e.EncodeShardState(m.Shard, state)
	}
	frames := make([]RawSums, len(c.shards))
	c.imu.RLock()
	for s, st := range c.shards {
		frames[s] = st.Sums(scope)
	}
	c.imu.RUnlock()
	g, err := NewGathered(c.mode, frames)
	if err != nil {
		return false, false, err
	}
	return g.Answer(m, e, sc)
}

// ShardSums exports one virtual shard's raw sums under a scope.
func (c *ShardMap) ShardSums(shard int, scope Scope) RawSums {
	c.imu.RLock()
	defer c.imu.RUnlock()
	return c.shards[shard].Sums(scope)
}

// InstallShard REPLACES one virtual shard's accumulator with the given
// serialized state: a fresh accumulator restores the bytes and is
// swapped in whole. Restore folds additively, so installing into the
// live accumulator would double-count on a member that already held a
// (stale) copy of the shard.
func (c *ShardMap) InstallShard(shard int, state []byte) error {
	if shard < 0 || shard >= len(c.shards) {
		return fmt.Errorf("transport: shard %d out of range [0..%d)", shard, len(c.shards))
	}
	fresh := c.mode.NewState(1)
	if err := fresh.RestoreState(state); err != nil {
		return fmt.Errorf("transport: restoring shard %d state: %w", shard, err)
	}
	c.imu.Lock()
	c.shards[shard] = fresh
	c.imu.Unlock()
	return nil
}

// marshalState serializes every virtual shard into the snapshot
// container, so recovery restores each shard independently. Called
// under the journal's exclusive snapshot lock, so the cut is consistent
// with the WAL cursor.
func (c *ShardMap) marshalState() []byte {
	states := make([][]byte, len(c.shards))
	c.imu.RLock()
	for s, st := range c.shards {
		states[s] = st.MarshalState()
	}
	c.imu.RUnlock()
	b, err := persist.EncodeShardStates(states)
	if err != nil {
		// Lengths are bounded by construction; an error here is a bug.
		panic(fmt.Sprintf("transport: encoding shard states: %v", err))
	}
	return b
}

// restoreState installs a snapshot container; its shard count must
// match the map's.
func (c *ShardMap) restoreState(b []byte) error {
	states, err := persist.DecodeShardStates(b)
	if err != nil {
		return err
	}
	if len(states) != len(c.shards) {
		return fmt.Errorf("transport: snapshot has %d shards, collector has %d", len(states), len(c.shards))
	}
	for s, st := range states {
		if err := c.InstallShard(s, st); err != nil {
			return err
		}
	}
	return nil
}

// SetView records a pushed cluster view. A view older than the one
// held is refused (applied=false, nil error; the gateway retries or
// moves on); a view that disagrees on the virtual-shard count is an
// error (the push is misaddressed). A view that omits this member is
// accepted — that is how a drain looks from the drained backend, and
// tracking it drops the owned-shards gauge to zero so the operator
// sees the drain took effect.
func (c *ShardMap) SetView(v membership.View) (applied bool, err error) {
	if err := v.Validate(); err != nil {
		return false, err
	}
	if v.NumShards != len(c.shards) {
		return false, fmt.Errorf("transport: view has %d shards, backend has %d", v.NumShards, len(c.shards))
	}
	c.vmu.Lock()
	defer c.vmu.Unlock()
	if c.view.Epoch > 0 && v.Epoch < c.view.Epoch {
		return false, nil
	}
	c.view = v.Clone()
	return true, nil
}

// View returns the most recently pushed cluster view (zero before any
// push).
func (c *ShardMap) View() membership.View {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	return c.view.Clone()
}

// OwnedShards counts the shards this member owns under the current
// view (0 before any push), for the owned-shards gauge.
func (c *ShardMap) OwnedShards() int {
	v := c.View()
	if len(v.Members) == 0 {
		return 0
	}
	return len(v.OwnedShards(c.selfID))
}

// Epoch returns the current view's epoch (0 before any push).
func (c *ShardMap) Epoch() uint64 {
	c.vmu.Lock()
	defer c.vmu.Unlock()
	return c.view.Epoch
}
