package transport

import (
	"strconv"
	"sync"
	"time"

	"rtf/internal/obs"
	"rtf/internal/wire"
)

// ServerMetrics is the instrument set of a serving process, shared by
// every front of the serving core. All instruments live in
// one obs.Registry (mounted at /metrics by the binaries), and the hot
// ones are plain atomic handles resolved once at construction:
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
//	queries_total{mechanism,kind} counters: answered reads by the
//	    front's label (the Mode's name — "boolean", "domain",
//	    "hashed-domain" — or, on the membership fronts, "membership" /
//	    "member" with a "-domain" suffix in domain mode) and kind (see
//	    QueryKindName)
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
	}
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
// read-path latency.
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
	label := "range"
	if scope == (wire.Scope{}) {
		label = "full"
	}
	m.reg.Counter(obs.Label("gathers_total", "scope", label)).Inc()
}

// ObserveGather records one completed scatter/gather round under the
// benchmark ledger's layer names: gather_fetch_seconds is the fetch
// phase (every backend's fenced sums round-trip, in parallel, up to the
// last frame decoded) and gather_fold_seconds the merge of the frames
// plus the construction of the state the answer is read from.
func (m *ServerMetrics) ObserveGather(scope wire.Scope, fetch, fold time.Duration) {
	m.CountGather(scope)
	m.reg.Histogram("gather_fetch_seconds", obs.ExpBuckets(1e-5, 2, 20)).Observe(fetch.Seconds())
	m.reg.Histogram("gather_fold_seconds", obs.ExpBuckets(1e-6, 2, 20)).Observe(fold.Seconds())
}

// CountSumsFrameBytes adds one fetched sums frame's wire size to
// sums_frame_bytes_total.
func (m *ServerMetrics) CountSumsFrameBytes(n int64) {
	m.reg.Counter("sums_frame_bytes_total").Add(n)
}

// CountHedge records one hedged fetch: armed when the primary fetch
// outlived the hedge delay, and won when the hedge connection answered
// first.
func (m *ServerMetrics) CountHedge(won bool) {
	m.reg.Counter("gateway_hedged_fetches_total").Inc()
	if won {
		m.reg.Counter("gateway_hedge_wins_total").Inc()
	}
}

// CountQuery increments queries_total for one answered query. The
// labeled counter is looked up in the registry (one short mutex
// acquisition); queries are off the ingest hot path, so the lookup cost
// is irrelevant.
func (m *ServerMetrics) CountQuery(mechanism, kind string) {
	m.reg.Counter(obs.Label("queries_total", "mechanism", mechanism, "kind", kind)).Inc()
}

// CountCacheEligible records one answered query whose answer path is
// backed by a version-keyed memo (query_cache_eligible_total). Every
// eligible query is also counted as exactly one hit or miss, so at any
// quiescent scrape hits + misses == eligible.
func (m *ServerMetrics) CountCacheEligible() {
	m.reg.Counter("query_cache_eligible_total").Inc()
}

// CountCacheResult records whether an eligible query was answered from
// a warm memo (query_cache_hits_total) or recomputed
// (query_cache_misses_total).
func (m *ServerMetrics) CountCacheResult(hit bool) {
	if hit {
		m.reg.Counter("query_cache_hits_total").Inc()
	} else {
		m.reg.Counter("query_cache_misses_total").Inc()
	}
}

// CountCoalesced records one query that joined an in-flight identical
// scatter/gather instead of starting its own (query_coalesced_total).
func (m *ServerMetrics) CountCoalesced() {
	m.reg.Counter("query_coalesced_total").Inc()
}

// CountCacheFill records one gather whose entry a gateway published in
// its answer cache, in answer_cache_fills_total{by}: "fence" when the
// gathering session had unfenced forwards (the read behind a write burst,
// which could not have been served from the cache), "miss" when it was a
// clean session that found nothing current.
func (m *ServerMetrics) CountCacheFill(fence bool) {
	by := "miss"
	if fence {
		by = "fence"
	}
	m.reg.Counter(obs.Label("answer_cache_fills_total", "by", by)).Inc()
}

// RegisterQueue exports the queue's live depth and capacity as gauges.
func (m *ServerMetrics) RegisterQueue(q *IngestQueue) {
	m.reg.GaugeFunc("ingest_queue_depth", func() float64 { return float64(q.Depth()) })
	m.reg.GaugeFunc("ingest_queue_capacity", func() float64 { return float64(q.Capacity()) })
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

// QueryKindName maps an answered query frame to its queries_total kind
// label.
func QueryKindName(m wire.Msg) string {
	switch m.Type {
	case wire.MsgSums, wire.MsgDomainSums, wire.MsgHashedDomainSums:
		return "sums"
	case wire.MsgShardSums:
		return "shard_sums"
	}
	switch m.Kind {
	case wire.QueryPoint:
		return "point"
	case wire.QueryChange:
		return "change"
	case wire.QuerySeries:
		return "series"
	case wire.QueryWindow:
		return "window"
	case wire.QueryPointItem:
		return "point_item"
	case wire.QuerySeriesItem:
		return "series_item"
	case wire.QueryTopK:
		return "topk"
	}
	return "unknown"
}
