package transport

import (
	"fmt"
	"slices"
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
	// apply holds it shared, InstallShard exclusively. Each virtual
	// shard's accumulator has its own run lock (see protocol.DomainSharded);
	// this lock only prevents a swap from stranding an in-flight write on
	// a replaced accumulator.
	imu    sync.RWMutex
	shards []State

	// buckets holds Apply's reusable *bucketScratch, sized to the shard
	// count.
	buckets sync.Pool

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
	c.buckets.New = func() any { return &bucketScratch{count: make([]int32, numShards)} }
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

// Apply implements Store: it buckets the run's records by virtual shard
// and hands each bucket to that shard's state as one run, so a frame
// takes one write lock per shard it touches, however its users
// interleave (consecutive user ids land on consecutive shards). Records
// were validated before Apply and addition is commutative, so the
// reordering is exact. The connection shard is unused: the map routes by
// user.
func (c *ShardMap) Apply(_ int, run []Rec, _ []byte) error {
	b := c.buckets.Get().(*bucketScratch)
	b.sort(run)
	var hellos, reports int64
	start := int32(0)
	c.imu.RLock()
	for _, sh := range b.used {
		end := b.count[sh]
		h, r := c.shards[sh].Apply(0, b.recs[start:end])
		hellos, reports = hellos+h, reports+r
		b.count[sh], start = 0, end
	}
	c.imu.RUnlock()
	c.buckets.Put(b)
	c.count(hellos, reports)
	return nil
}

// bucketScratch is ShardMap.Apply's space for a counting sort of one
// run by virtual shard.
type bucketScratch struct {
	recs  []Rec   // the run, bucket by bucket
	keys  []int32 // each record's shard
	used  []int32 // the shards the run touches, in first-seen order
	count []int32 // per shard: after sort, where its bucket ends in recs; zero between runs
}

// sort fills recs with run's records grouped by shard, in used order,
// each bucket keeping the run's order.
func (b *bucketScratch) sort(run []Rec) {
	n := len(b.count)
	b.keys, b.used = b.keys[:0], b.used[:0]
	for i := range run {
		sh := int32(membership.ShardOf(run[i].User, n))
		if b.count[sh] == 0 {
			b.used = append(b.used, sh)
		}
		b.count[sh]++
		b.keys = append(b.keys, sh)
	}
	off := int32(0)
	for _, sh := range b.used {
		b.count[sh], off = off, off+b.count[sh]
	}
	b.recs = slices.Grow(b.recs[:0], len(run))[:len(run)]
	for i, sh := range b.keys {
		b.recs[b.count[sh]] = run[i]
		b.count[sh]++
	}
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
