package transport

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtf/internal/obs"
	"rtf/internal/wire"
)

// ServerMetrics is the instrument set of a serving process, shared by
// every front of the serving core. All instruments live in one
// obs.Registry (mounted at /metrics by the binaries), and every one a
// served batch or read records into is a plain atomic handle resolved
// once, so recording takes neither the registry's lock nor an
// allocation. The ingest set is resolved at construction:
//
//	ingest_messages_total      counter: ingest messages applied
//	ingest_batches_total       counter: batches applied
//	ingest_acked_batches_total counter: acked batches received (applied or shed)
//	ingest_shed_batches_total  counter: acked batches shed whole by the queue
//	ingest_ack_flushes_total   counter: writes that carried batch acks; acks
//	    are buffered until the frame loop answers a read or goes back to
//	    the socket, so ingest_acked_batches_total over this is the
//	    coalescing factor (1 when every frame is sent and awaited alone)
//	ingest_batch_size          histogram: sizes of applied batches
//	ingest_latency_seconds     histogram: frame-decoded to applied-and-ack-
//	    buffered latency per batch (the ack's own write is not in it)
//	conns_active               gauge: currently served connections
//
// The read path's handles are resolved at their first event, so a
// snapshot lists only the instruments something has recorded into:
//
//	queries_total{mechanism,kind} counters: answered reads by the
//	    front's label (the Mode's name — "boolean", "domain",
//	    "hashed-domain" — or, on the membership fronts, "membership" /
//	    "member" with a "-domain" suffix in domain mode) and kind (see
//	    queryKindNames); a connection looks its front's set up once
//	query_cache_eligible_total, query_cache_hits_total,
//	    query_cache_misses_total, query_coalesced_total counters: see
//	    CountCacheResult and CountCoalesced
//	gathers_total{scope}, gather_fetch_seconds, gather_fold_seconds,
//	    sums_frame_bytes_total: see CountGather and ObserveGather
//	answer_cache_fills_total{by} counters: see CountCacheFill
//	scatter_latency_seconds{backend} histograms: see ObserveScatter
//
// Shed batches are deliberately excluded from the size and latency
// histograms and the message counter — those describe applied work, and
// the shed counter together with the acked counter gives the rejection
// rate.
type ServerMetrics struct {
	reg *obs.Registry

	Messages     *obs.Counter
	Batches      *obs.Counter
	AckedBatches *obs.Counter
	ShedBatches  *obs.Counter
	AckFlushes   *obs.Counter
	BatchSize    *obs.Histogram
	Latency      *obs.Histogram
	ActiveConns  *obs.Gauge

	cacheEligible, cacheHits, cacheMisses lazyCounter
	coalesced, sumsFrameBytes             lazyCounter
	gathers                               [2]lazyCounter // by scope: range, full
	fills                                 [2]lazyCounter // by: miss, fence
	gatherFetch, gatherFold               lazyHistogram

	// queries holds each front label's queries_total counters.
	queriesMu sync.Mutex
	queries   map[string]*queryCounters

	// scatter holds the scatter_latency_seconds{backend="i"} histograms,
	// each resolved at backend i's first fetch.
	scatterMu sync.Mutex
	scatter   []*obs.Histogram
}

// NewServerMetrics resolves the ingest instrument set in r.
func NewServerMetrics(r *obs.Registry) *ServerMetrics {
	return &ServerMetrics{
		reg:          r,
		Messages:     r.Counter("ingest_messages_total"),
		Batches:      r.Counter("ingest_batches_total"),
		AckedBatches: r.Counter("ingest_acked_batches_total"),
		ShedBatches:  r.Counter("ingest_shed_batches_total"),
		AckFlushes:   r.Counter("ingest_ack_flushes_total"),
		BatchSize:    r.Histogram("ingest_batch_size", obs.ExpBuckets(1, 2, 16)),
		Latency:      r.Histogram("ingest_latency_seconds", obs.ExpBuckets(1e-5, 2, 20)),
		ActiveConns:  r.Gauge("conns_active"),

		cacheEligible:  lazyCounter{name: "query_cache_eligible_total"},
		cacheHits:      lazyCounter{name: "query_cache_hits_total"},
		cacheMisses:    lazyCounter{name: "query_cache_misses_total"},
		coalesced:      lazyCounter{name: "query_coalesced_total"},
		sumsFrameBytes: lazyCounter{name: "sums_frame_bytes_total"},
		gathers: [2]lazyCounter{
			{name: obs.Label("gathers_total", "scope", "range")},
			{name: obs.Label("gathers_total", "scope", "full")},
		},
		fills: [2]lazyCounter{
			{name: obs.Label("answer_cache_fills_total", "by", "miss")},
			{name: obs.Label("answer_cache_fills_total", "by", "fence")},
		},
		gatherFetch: lazyHistogram{name: "gather_fetch_seconds", bounds: obs.ExpBuckets(1e-5, 2, 20)},
		gatherFold:  lazyHistogram{name: "gather_fold_seconds", bounds: obs.ExpBuckets(1e-6, 2, 20)},
		queries:     make(map[string]*queryCounters),
	}
}

// lazyCounter is a registry counter resolved at its first event: one
// registry lookup, then an atomic load per event. Concurrent first
// events resolve the same get-or-create counter.
type lazyCounter struct {
	name string
	c    atomic.Pointer[obs.Counter]
}

func (l *lazyCounter) get(r *obs.Registry) *obs.Counter {
	c := l.c.Load()
	if c == nil {
		c = r.Counter(l.name)
		l.c.Store(c)
	}
	return c
}

// lazyHistogram is lazyCounter's histogram.
type lazyHistogram struct {
	name   string
	bounds []float64
	h      atomic.Pointer[obs.Histogram]
}

func (l *lazyHistogram) get(r *obs.Registry) *obs.Histogram {
	h := l.h.Load()
	if h == nil {
		h = r.Histogram(l.name, l.bounds)
		l.h.Store(h)
	}
	return h
}

// Registry returns the registry the instruments live in. Only tests call
// it, cluster's TestFrameLoopConformance among them.
func (m *ServerMetrics) Registry() *obs.Registry { return m.reg }

// ObserveBatch records one applied batch of n ingest messages. Frames
// holding only query messages pass n == 0 and are not counted here —
// they show up in queries_total, and the ingest histograms keep
// describing ingest work alone.
func (m *ServerMetrics) ObserveBatch(n int, d time.Duration, acked bool) {
	if n == 0 {
		return
	}
	m.Batches.Inc()
	m.Messages.Add(int64(n))
	m.BatchSize.Observe(float64(n))
	m.Latency.Observe(d.Seconds())
	if acked {
		m.AckedBatches.Inc()
	}
}

// ObserveShed records one acked batch shed whole by the queue.
func (m *ServerMetrics) ObserveShed() {
	m.AckedBatches.Inc()
	m.ShedBatches.Inc()
}

// ObserveScatter records one successful scatter fetch against backend i
// in scatter_latency_seconds{backend="i"} — the gateway's per-backend
// read-path latency. A gather's fetches are the only callers, so the
// handles are looked up under a mutex of their own.
func (m *ServerMetrics) ObserveScatter(i int, d time.Duration) {
	m.scatterMu.Lock()
	if i >= len(m.scatter) {
		m.scatter = append(m.scatter, make([]*obs.Histogram, i+1-len(m.scatter))...)
	}
	if m.scatter[i] == nil {
		m.scatter[i] = m.reg.Histogram(obs.Label("scatter_latency_seconds", "backend", strconv.Itoa(i)), obs.ExpBuckets(1e-5, 2, 20))
	}
	h := m.scatter[i]
	m.scatterMu.Unlock()
	h.Observe(d.Seconds())
}

// CountGather records one gather of raw sums — a gateway's scatter/gather
// round, a shard map's fold of its virtual shards — in
// gathers_total{scope}: "range" when it moved only the columns of one
// period range, "full" when it moved every column.
func (m *ServerMetrics) CountGather(scope wire.Scope) {
	full := 0
	if scope == (wire.Scope{}) {
		full = 1
	}
	m.gathers[full].get(m.reg).Inc()
}

// ObserveGather records one completed scatter/gather round under the
// benchmark ledger's layer names: gather_fetch_seconds is the fetch
// phase (every backend's fenced sums round-trip, in parallel, up to the
// last frame decoded) and gather_fold_seconds the merge of the frames
// plus the construction of the state the answer is read from.
func (m *ServerMetrics) ObserveGather(scope wire.Scope, fetch, fold time.Duration) {
	m.CountGather(scope)
	m.gatherFetch.get(m.reg).Observe(fetch.Seconds())
	m.gatherFold.get(m.reg).Observe(fold.Seconds())
}

// CountSumsFrameBytes adds one fetched sums frame's wire size to
// sums_frame_bytes_total.
func (m *ServerMetrics) CountSumsFrameBytes(n int64) {
	m.sumsFrameBytes.get(m.reg).Add(n)
}

// CountCacheResult records one answered query whose answer path is
// backed by a version-keyed memo, in query_cache_eligible_total, and
// whether it was answered from a warm memo (query_cache_hits_total) or
// recomputed (query_cache_misses_total): at any quiescent scrape
// hits + misses == eligible.
func (m *ServerMetrics) CountCacheResult(hit bool) {
	m.cacheEligible.get(m.reg).Inc()
	if hit {
		m.cacheHits.get(m.reg).Inc()
	} else {
		m.cacheMisses.get(m.reg).Inc()
	}
}

// CountCoalesced records one query that joined an in-flight identical
// scatter/gather instead of starting its own (query_coalesced_total).
func (m *ServerMetrics) CountCoalesced() {
	m.coalesced.get(m.reg).Inc()
}

// CountCacheFill records one gather whose entry a gateway published in
// its answer cache, in answer_cache_fills_total{by}: "fence" when the
// gathering session had unfenced forwards (the read behind a write burst,
// which could not have been served from the cache), "miss" when it was a
// clean session that found nothing current.
func (m *ServerMetrics) CountCacheFill(fence bool) {
	by := 0
	if fence {
		by = 1
	}
	m.fills[by].get(m.reg).Inc()
}

// queryCounters is one front label's queries_total counters, one per
// kind, each resolved at the first query of its kind.
type queryCounters struct {
	reg   *obs.Registry
	kinds [len(queryKindNames)]lazyCounter
}

// queriesOf returns the queries_total counters of a front label,
// built at the label's first lookup.
func (m *ServerMetrics) queriesOf(label string) *queryCounters {
	m.queriesMu.Lock()
	defer m.queriesMu.Unlock()
	q := m.queries[label]
	if q == nil {
		q = &queryCounters{reg: m.reg}
		for k, name := range queryKindNames {
			q.kinds[k].name = obs.Label("queries_total", "mechanism", label, "kind", name)
		}
		m.queries[label] = q
	}
	return q
}

// count increments queries_total for one answered read frame.
func (q *queryCounters) count(m wire.Msg) { q.kinds[queryKind(m)].get(q.reg).Inc() }

// queryKindNames are the queries_total kind labels: index k in 1..7 is
// the query kind of wire value k, then a mode's raw-sums request and a
// per-shard one; 0 is a kind no validated read carries.
var queryKindNames = [...]string{"unknown", "point", "change", "series", "window", "point_item", "series_item", "topk", "sums", "shard_sums"}

// queryKind maps an answered read frame to its index in queryKindNames.
func queryKind(m wire.Msg) int {
	switch m.Type {
	case wire.MsgSums, wire.MsgDomainSums, wire.MsgHashedDomainSums:
		return 8
	case wire.MsgShardSums:
		return 9
	}
	if m.Kind >= wire.QueryPoint && m.Kind <= wire.QueryTopK {
		return int(m.Kind)
	}
	return 0
}

// RegisterQueue exports the queue's live depth and capacity as gauges.
func (m *ServerMetrics) RegisterQueue(q *IngestQueue) {
	m.reg.GaugeFunc("ingest_queue_depth", func() float64 { return float64(q.Depth()) })
	m.reg.GaugeFunc("ingest_queue_capacity", func() float64 { return float64(q.Capacity()) })
}

// RegisterCounters exports what a store's counters hold in memory:
// counter_shards_allocated (counter shards with a matrix; a shard gets
// one from its first writer) and counter_resident_bytes (the bytes those
// matrices occupy).
func (m *ServerMetrics) RegisterCounters(s Store) {
	m.reg.GaugeFunc("counter_shards_allocated", func() float64 {
		n, _ := s.Resident()
		return float64(n)
	})
	m.reg.GaugeFunc("counter_resident_bytes", func() float64 {
		_, b := s.Resident()
		return float64(b)
	})
}

// DurabilityStatser is satisfied by Durable.
type DurabilityStatser interface {
	DurabilityStats() DurabilityStats
}

// RegisterDurability exports a durable collector's WAL and snapshot
// state: wal_last_seq, wal_appended_bytes_total (bytes the log has
// written since boot, headers included — over ingest_messages_total it
// is the benchmark's persist.wal_bytes_per_report), wal_lag_records (records
// appended since the newest snapshot's cursor — the replay debt a
// restart would pay), and snapshot_age_seconds (time since the newest
// snapshot was written, or since boot when none has been).
func (m *ServerMetrics) RegisterDurability(ds DurabilityStatser) {
	m.reg.GaugeFunc("wal_last_seq", func() float64 {
		return float64(ds.DurabilityStats().LastSeq)
	})
	m.reg.GaugeFunc("wal_appended_bytes_total", func() float64 {
		return float64(ds.DurabilityStats().WALAppendedBytes)
	})
	m.reg.GaugeFunc("wal_lag_records", func() float64 {
		return float64(ds.DurabilityStats().WALLagRecords)
	})
	m.reg.GaugeFunc("snapshot_age_seconds", func() float64 {
		return ds.DurabilityStats().SnapshotAge.Seconds()
	})
}
