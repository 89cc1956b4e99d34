package transport

import (
	"sync/atomic"

	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// Store is the state behind a single-node front: the in-memory
// Collector, the membership-mode ShardMap, or a Durable journal around
// either. It answers the mode's read frames from its live counters.
type Store interface {
	Reader
	// Mode returns the protocol mode the store was built for.
	Mode() Mode
	// Apply is the trusted entry: it applies a run of records (a durable
	// store journals it first) and checks nothing itself — a record only
	// exists once its message passed the contract. The frame loop calls
	// it directly, so a served message is validated exactly once, in the
	// decoder. raw must be the bytes that encoded exactly run (a stretch
	// of Frame.Wire): a durable store journals them as they are, and is
	// done with them when Apply returns. An in-memory store ignores them.
	// shard is a routing hint — the connection's shard slot — that
	// spreads concurrent writers across counter shards.
	Apply(shard int, run []wire.Rec, raw []byte) error
	// Stats returns the number of hellos, reports and batches ingested.
	Stats() (hellos, reports, batches int64)
	// Users returns the number of registered users.
	Users() int
	// Resident reports the counter shards that hold a matrix and the
	// bytes those matrices occupy (see State.Resident), summed over
	// every accumulator the store keeps.
	Resident() (shards int, bytes int64)
}

// ingestStats counts what a store has applied.
type ingestStats struct {
	hellos, reports, batches atomic.Int64
}

func (c *ingestStats) count(hellos, reports int64) {
	if hellos > 0 {
		c.hellos.Add(hellos)
	}
	c.reports.Add(reports)
	c.batches.Add(1)
}

// Stats returns the number of hellos, reports and batches ingested.
func (c *ingestStats) Stats() (hellos, reports, batches int64) {
	return c.hellos.Load(), c.reports.Load(), c.batches.Load()
}

// Collector is the concurrent fan-in point of the batch-ingest service:
// any number of connection goroutines push decoded batches, and the
// collector applies each validated run to one sharded accumulator of its
// Mode — under the run's shard write lock, while reads fold under every
// shard's read lock (see protocol.DomainSharded), so a read never sees half a
// run.
type Collector struct {
	mode Mode
	st   State
	ingestStats
}

// NewCollector builds a collector over a fresh accumulator of the given
// mode, spread over shards counter shards.
func NewCollector(mode Mode, shards int) *Collector {
	return &Collector{mode: mode, st: mode.NewState(shards)}
}

// NewShardedCollector builds a Boolean collector over the given
// accumulator.
func NewShardedCollector(acc *protocol.Sharded) *Collector {
	return &Collector{mode: BoolMode(acc.D(), acc.Scale()), st: newBoolState(acc)}
}

// NewDomainCollector builds an exact-domain collector over the given
// domain server.
func NewDomainCollector(ds *hh.DomainServer) *Collector {
	return domainCollector(ds.Encoding(), ds, ds)
}

// NewHashedDomainCollector builds a hashed-domain collector over the
// given server: its bucket rows take the writes, and it answers the
// queries.
func NewHashedDomainCollector(hs *hh.HashedDomainServer) *Collector {
	return domainCollector(hs.Encoding(), hs.Inner(), hs)
}

func domainCollector(enc hh.DomainEncoding, rows *hh.DomainServer, items hh.Items) *Collector {
	return &Collector{mode: DomainMode(rows.D(), enc, rows.BoolScale()), st: domainState{rows, items}}
}

// Mode implements Store.
func (c *Collector) Mode() Mode { return c.mode }

// Users implements Store.
func (c *Collector) Users() int { return c.st.Users() }

// Resident implements Store.
func (c *Collector) Resident() (shards int, bytes int64) { return c.st.Resident() }

// Answer implements Reader from the live accumulator.
func (c *Collector) Answer(m wire.Msg, e *wire.Encoder, sc *AnswerScratch) (memo, hit bool, err error) {
	return c.st.Answer(m, e, sc)
}

// Apply implements Store: one write lock per run, one plain add per
// message.
func (c *Collector) Apply(shard int, run []wire.Rec, _ []byte) error {
	c.count(c.st.Apply(shard, run))
	return nil
}

func (c *Collector) marshalState() []byte        { return c.st.MarshalState() }
func (c *Collector) restoreState(b []byte) error { return c.st.RestoreState(b) }
