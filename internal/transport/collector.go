package transport

import (
	"slices"
	"sync"
	"sync/atomic"

	"rtf/internal/hh"
	"rtf/internal/protocol"
)

// Store is the state behind a single-node front: the in-memory
// Collector, the membership-mode ShardMap, or a Durable journal around
// either. It answers the mode's read frames from its live counters.
type Store interface {
	Reader
	// Mode returns the protocol mode the store was built for.
	Mode() Mode
	// SendBatch is the untrusted adapter: it checks each message of a
	// run against Mode().Ingest(), converts the run to records and hands
	// it to Apply. The run is atomic: on a validation or journaling error
	// nothing is applied. shard is a routing hint — typically the
	// connection id — that spreads hot counters across cache lines.
	SendBatch(shard int, ms []Msg) error
	// Apply is the trusted entry: it applies a run of records (a durable
	// store journals it first) and checks nothing itself — a record only
	// exists once its message passed the contract. The frame loop calls
	// it directly, so a served message is validated exactly once, in the
	// decoder. wire must be the bytes that encoded exactly run (a stretch
	// of Frame.Wire): a durable store journals them as they are, and is
	// done with them when Apply returns. An in-memory store ignores them.
	Apply(shard int, run []Rec, wire []byte) error
	// Stats returns the number of hellos, reports and batches ingested.
	Stats() (hellos, reports, batches int64)
	// Users returns the number of registered users.
	Users() int
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
	return &Collector{mode: BoolMode(acc.D(), acc.Scale()), st: liveBoolState(acc)}
}

// NewDomainCollector builds an exact-domain collector over the given
// domain server.
func NewDomainCollector(ds *hh.DomainServer) *Collector {
	return domainCollector(hh.ExactEncoding(ds.M()), ds, ds)
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

// Answer implements Reader from the live accumulator.
func (c *Collector) Answer(m Msg, e *Encoder, sc *AnswerScratch) (memo, hit bool, err error) {
	return c.st.Answer(m, e, sc)
}

// sendScratch holds the record (and, for a durable store, wire) buffers
// of SendBatch calls in flight.
type sendScratch struct {
	recs []Rec
	wire []byte
}

var sendPool = sync.Pool{New: func() any { return new(sendScratch) }}

// sendBatch is every store's SendBatch: the one contract check per
// message, then the trusted entry. journal asks for the run's canonical
// encoding to be handed to Apply as its wire bytes.
func sendBatch(s Store, shard int, ms []Msg, journal bool) error {
	sc := sendPool.Get().(*sendScratch)
	defer sendPool.Put(sc)
	c := s.Mode().Ingest()
	sc.recs = slices.Grow(sc.recs[:0], len(ms))[:len(ms)]
	for i := range ms {
		if !c.check(&ms[i], &sc.recs[i]) {
			return c.explain(&ms[i])
		}
	}
	if !journal {
		return s.Apply(shard, sc.recs, nil)
	}
	var err error
	if sc.wire, err = appendMsgs(sc.wire[:0], ms); err != nil {
		return err
	}
	return s.Apply(shard, sc.recs, sc.wire)
}

// SendBatch implements Store.
func (c *Collector) SendBatch(shard int, ms []Msg) error { return sendBatch(c, shard, ms, false) }

// Apply implements Store: one write lock per run, one plain add per
// message.
func (c *Collector) Apply(shard int, run []Rec, _ []byte) error {
	c.count(c.st.Apply(shard, run))
	return nil
}

func (c *Collector) marshalState() []byte        { return c.st.MarshalState() }
func (c *Collector) restoreState(b []byte) error { return c.st.RestoreState(b) }
