package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtf/internal/hh"
	"rtf/internal/obs"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// TestAckedBatchWireRoundTrip exercises the acked-batch frames at the
// codec level: an acked batch decodes with the acked flag set, a legacy
// batch without it, and both ack verdicts round-trip.
func TestAckedBatchWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	ms := []wire.Msg{wire.Hello(1, 2), wire.FromReport(protocol.Report{User: 1, Order: 2, J: 3, Bit: 1})}
	if err := enc.EncodeAckedBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeBatchAck(true); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeBatchAck(false); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	dec := wire.NewDecoder(&buf)
	c := wire.BoolIngest(16)
	f, err := dec.NextFrame(&c)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Acked {
		t.Fatal("first batch should decode as acked")
	}
	if len(f.Recs) != len(ms) || f.Recs[0].Bit != 0 || f.Recs[1].Bit != 1 {
		t.Fatalf("acked batch decoded as %+v", f.Recs)
	}
	if f, err = dec.NextFrame(&c); err != nil {
		t.Fatal(err)
	}
	if f.Acked {
		t.Fatal("legacy batch should not decode as acked")
	}
	for _, want := range []bool{true, false} {
		applied, err := dec.ReadBatchAck()
		if err != nil {
			t.Fatal(err)
		}
		if applied != want {
			t.Fatalf("ack = %v, want %v", applied, want)
		}
	}
}

// TestAckedBatchWireErrors pins down the malformed-frame space of the
// new message types.
func TestAckedBatchWireErrors(t *testing.T) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	if err := enc.EncodeAckedBatch(nil); err == nil {
		t.Fatal("empty acked batch must not encode: its ack would never be owed")
	}

	decodeErr := func(raw []byte) error {
		d := wire.NewDecoder(bytes.NewReader(raw))
		_, err := d.NextBatch()
		return err
	}
	// Empty acked batch on the wire: type 16, count 0.
	if err := decodeErr([]byte{16, 0}); err == nil {
		t.Fatal("empty acked batch must not decode")
	}
	// Acked batch containing a nested batch header.
	if err := decodeErr([]byte{16, 1, 3}); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("nested legacy batch: err = %v", err)
	}
	if err := decodeErr([]byte{16, 1, 16}); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("nested acked batch: err = %v", err)
	}
	// A batch ack inside a batch.
	if err := decodeErr([]byte{3, 1, 17}); err == nil {
		t.Fatal("batch ack inside batch must not decode")
	}
	// A bare batch ack surfacing through Next.
	d := wire.NewDecoder(bytes.NewReader([]byte{17, 1}))
	if _, err := d.Next(); err == nil || !strings.Contains(err.Error(), "ReadBatchAck") {
		t.Fatalf("stray batch ack: err = %v", err)
	}
	// ReadBatchAck on a non-ack frame and on a corrupt status byte.
	d = wire.NewDecoder(bytes.NewReader([]byte{1, 0, 0}))
	if _, err := d.ReadBatchAck(); err == nil {
		t.Fatal("ReadBatchAck must reject a non-ack frame")
	}
	d = wire.NewDecoder(bytes.NewReader([]byte{17, 7}))
	if _, err := d.ReadBatchAck(); err == nil {
		t.Fatal("ReadBatchAck must reject status bytes beyond 0/1")
	}
}

// dialIngest connects to addr and returns a codec pair over the
// connection.
func dialIngest(t *testing.T, addr string) (net.Conn, *wire.Encoder, *wire.Decoder) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn, wire.NewEncoder(conn), wire.NewDecoder(conn)
}

// startServer runs srv on a loopback listener and returns its address
// plus a closer that fails the test on a serve error.
func startServer(t *testing.T, srv *IngestServer) (addr string, closeSrv func()) {
	t.Helper()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	return (<-ready).String(), func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestAckedBatchServingAndMetrics drives acked batches end to end over
// TCP against an instrumented server and asserts the full instrument
// set: applied/acked counters, batch-size and latency histograms,
// per-kind query counters, connection gauge, and queue gauges.
func TestAckedBatchServingAndMetrics(t *testing.T) {
	const d, scale = 16, 2.0
	col := NewShardedCollector(protocol.NewSharded(d, scale, 2))
	srv := NewIngestServer(col)
	srv.ErrorLog = func(err error) { t.Error(err) }
	srv.Metrics = NewServerMetrics(obs.NewRegistry())
	srv.Queue = NewIngestQueue(4)
	srv.Metrics.RegisterQueue(srv.Queue)
	addr, closeSrv := startServer(t, srv)
	defer closeSrv()

	conn, enc, dec := dialIngest(t, addr)
	defer conn.Close()
	batches := [][]wire.Msg{
		{wire.Hello(1, 0), wire.Hello(2, 1)},
		{wire.FromReport(protocol.Report{User: 1, Order: 0, J: 5, Bit: 1})},
		{wire.FromReport(protocol.Report{User: 2, Order: 1, J: 3, Bit: 1}), wire.FromReport(protocol.Report{User: 1, Order: 0, J: 7, Bit: -1})},
	}
	for _, b := range batches {
		if err := enc.EncodeAckedBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		applied, err := dec.ReadBatchAck()
		if err != nil {
			t.Fatal(err)
		}
		if !applied {
			t.Fatal("uncontended acked batch must be applied")
		}
	}
	// The positive ack is written after the batch applies, so state is
	// already visible: no fence needed.
	if err := enc.Encode(wire.QueryV2(wire.QueryPoint, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadAnswer(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(wire.Msg{Type: wire.MsgSums}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadSums(); err != nil {
		t.Fatal(err)
	}

	hellos, reports, _ := col.Stats()
	if hellos != 2 || reports != 3 {
		t.Fatalf("collector saw %d hellos, %d reports", hellos, reports)
	}

	s := srv.Metrics.Registry().Snapshot()
	wantCounters := map[string]int64{
		"ingest_messages_total":                           5,
		"ingest_batches_total":                            3,
		"ingest_acked_batches_total":                      3,
		"ingest_shed_batches_total":                       0,
		`queries_total{mechanism="boolean",kind="point"}`: 1,
		`queries_total{mechanism="boolean",kind="sums"}`:  1,
	}
	for name, want := range wantCounters {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	bs := s.Histograms["ingest_batch_size"]
	if bs.Count != 3 || bs.Sum != 5 {
		t.Errorf("ingest_batch_size count=%d sum=%v, want 3/5", bs.Count, bs.Sum)
	}
	lat := s.Histograms["ingest_latency_seconds"]
	if lat.Count != 3 || lat.Sum <= 0 {
		t.Errorf("ingest_latency_seconds count=%d sum=%v", lat.Count, lat.Sum)
	}
	if got := s.Gauges["conns_active"]; got != 1 {
		t.Errorf("conns_active = %v, want 1", got)
	}
	if got := s.Gauges["ingest_queue_capacity"]; got != 4 {
		t.Errorf("ingest_queue_capacity = %v, want 4", got)
	}
	if got := s.Gauges["ingest_queue_depth"]; got != 0 {
		t.Errorf("ingest_queue_depth = %v, want 0 at rest", got)
	}
}

// TestAckedBatchShedWhole is the load-shedding contract: with the
// queue full, an acked batch is rejected whole — negative ack, nothing
// applied, shed counter up — and the same batch applies cleanly once
// capacity frees.
func TestAckedBatchShedWhole(t *testing.T) {
	const d, scale = 16, 2.0
	col := NewShardedCollector(protocol.NewSharded(d, scale, 2))
	srv := NewIngestServer(col)
	srv.ErrorLog = func(err error) { t.Error(err) }
	srv.Metrics = NewServerMetrics(obs.NewRegistry())
	srv.Queue = NewIngestQueue(1)
	addr, closeSrv := startServer(t, srv)
	defer closeSrv()

	conn, enc, dec := dialIngest(t, addr)
	defer conn.Close()
	batch := []wire.Msg{wire.Hello(1, 0), wire.FromReport(protocol.Report{User: 1, Order: 0, J: 5, Bit: 1})}

	// Hold the only slot so admission must fail.
	srv.Queue.Acquire()
	if err := enc.EncodeAckedBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	applied, err := dec.ReadBatchAck()
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("acked batch against a full queue must be shed")
	}
	if hellos, reports, batches := col.Stats(); hellos != 0 || reports != 0 || batches != 0 {
		t.Fatalf("shed batch left state behind: %d hellos, %d reports, %d batches", hellos, reports, batches)
	}
	if got := srv.Metrics.ShedBatches.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Same batch after release: applied.
	srv.Queue.Release()
	if err := enc.EncodeAckedBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	applied, err = dec.ReadBatchAck()
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("acked batch against a free queue must apply")
	}
	if hellos, reports, _ := col.Stats(); hellos != 1 || reports != 1 {
		t.Fatalf("collector saw %d hellos, %d reports, want 1/1", hellos, reports)
	}
	if got := srv.Metrics.AckedBatches.Value(); got != 2 {
		t.Fatalf("acked counter = %d, want 2 (one shed + one applied)", got)
	}
}

// TestLegacyBatchBlocksInsteadOfShedding pins the compatibility
// contract: a legacy (un-acked) batch is never shed — it waits for
// queue capacity under TCP backpressure and applies once a slot frees.
func TestLegacyBatchBlocksInsteadOfShedding(t *testing.T) {
	const d, scale = 16, 2.0
	col := NewShardedCollector(protocol.NewSharded(d, scale, 2))
	srv := NewIngestServer(col)
	srv.ErrorLog = func(err error) { t.Error(err) }
	srv.Queue = NewIngestQueue(1)
	addr, closeSrv := startServer(t, srv)
	defer closeSrv()

	conn, enc, dec := dialIngest(t, addr)
	defer conn.Close()

	srv.Queue.Acquire()
	if err := enc.EncodeBatch([]wire.Msg{wire.Hello(1, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	// The slot is held, so the batch cannot have applied no matter how
	// long we wait.
	time.Sleep(20 * time.Millisecond)
	if hellos, _, _ := col.Stats(); hellos != 0 {
		t.Fatal("legacy batch applied while the queue was full")
	}
	srv.Queue.Release()
	// Fence: a query answer proves the blocked batch has applied.
	if err := enc.Encode(pointQ(1)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadAnswer(); err != nil {
		t.Fatal(err)
	}
	if hellos, _, _ := col.Stats(); hellos != 1 {
		t.Fatal("legacy batch did not apply after the queue freed")
	}
}

// TestAckedBatchRejectsQueries: query frames may not travel in acked
// batches (a shed reply would be indistinguishable from a lost answer),
// and the server drops the connection without applying anything.
func TestAckedBatchRejectsQueries(t *testing.T) {
	col := NewShardedCollector(protocol.NewSharded(16, 2.0, 2))
	srv := NewIngestServer(col)
	addr, closeSrv := startServer(t, srv)
	defer closeSrv()

	conn, enc, _ := dialIngest(t, addr)
	defer conn.Close()
	if err := enc.EncodeAckedBatch([]wire.Msg{wire.Hello(1, 0), pointQ(1)}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the server to drop the connection")
	}
	if hellos, _, _ := col.Stats(); hellos != 0 {
		t.Fatal("poisoned acked batch applied a prefix")
	}
}

// TestDomainAckedBatchServing runs the acked-batch path in domain mode:
// shed-then-apply against a full queue, per-mechanism query counters.
func TestDomainAckedBatchServing(t *testing.T) {
	ds := hh.NewDomainServer(16, 8, 2.0, 2)
	col := NewDomainCollector(ds)
	srv := NewIngestServer(col)
	srv.ErrorLog = func(err error) { t.Error(err) }
	srv.Metrics = NewServerMetrics(obs.NewRegistry())
	srv.Queue = NewIngestQueue(1)
	addr, closeSrv := startServer(t, srv)
	defer closeSrv()

	conn, enc, dec := dialIngest(t, addr)
	defer conn.Close()
	batch := []wire.Msg{wire.DomainHello(1, 3, 0), wire.FromDomainReport(3, protocol.Report{User: 1, Order: 0, J: 5, Bit: 1})}

	srv.Queue.Acquire()
	if err := enc.EncodeAckedBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if applied, err := dec.ReadBatchAck(); err != nil || applied {
		t.Fatalf("want shed, got applied=%v err=%v", applied, err)
	}
	if hellos, reports, _ := col.Stats(); hellos != 0 || reports != 0 {
		t.Fatalf("shed domain batch left state: %d hellos, %d reports", hellos, reports)
	}
	srv.Queue.Release()
	if err := enc.EncodeAckedBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if applied, err := dec.ReadBatchAck(); err != nil || !applied {
		t.Fatalf("want applied, got applied=%v err=%v", applied, err)
	}
	if err := enc.Encode(wire.DomainQuery(wire.QueryPointItem, 3, 5, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadDomainAnswer(); err != nil {
		t.Fatal(err)
	}
	s := srv.Metrics.Registry().Snapshot()
	if got := s.Counters[`queries_total{mechanism="domain",kind="point_item"}`]; got != 1 {
		t.Fatalf("domain point query counter = %d", got)
	}
	if got := s.Counters["ingest_shed_batches_total"]; got != 1 {
		t.Fatalf("domain shed counter = %d", got)
	}
}

// TestDurabilityGauges asserts the WAL-lag and snapshot-age gauges: lag
// counts records appended since the last snapshot cursor and drops back
// to zero after a snapshot cut.
func TestDurabilityGauges(t *testing.T) {
	const d, scale = 16, 2.0
	dir := t.TempDir()
	meta := persist.Meta{Mechanism: "test", D: d, K: 2, Eps: 1, Scale: scale}
	col, _, err := OpenDurable(protocol.NewSharded(d, scale, 2), dir, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	m := NewServerMetrics(obs.NewRegistry())
	m.RegisterDurability(col)

	if lag := m.Registry().Snapshot().Gauges["wal_lag_records"]; lag != 0 {
		t.Fatalf("fresh journal lag = %v", lag)
	}
	for i := 0; i < 3; i++ {
		if err := ingestRun(col, 0, []wire.Msg{wire.Hello(i, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Registry().Snapshot()
	if lag := s.Gauges["wal_lag_records"]; lag != 3 {
		t.Fatalf("lag after 3 appends = %v, want 3", lag)
	}
	if last := s.Gauges["wal_last_seq"]; last != 3 {
		t.Fatalf("wal_last_seq = %v, want 3", last)
	}
	// The byte counter is the log's size on disk — segment and record
	// headers included — which is what the benchmark's
	// persist.wal_bytes_per_report divides by the reports journaled.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("WAL segments: %v, %v", segs, err)
	}
	var onDisk int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if got := s.Gauges["wal_appended_bytes_total"]; got != float64(onDisk) {
		t.Fatalf("wal_appended_bytes_total = %v, log holds %d bytes", got, onDisk)
	}
	if age := s.Gauges["snapshot_age_seconds"]; age < 0 || age > 60 {
		t.Fatalf("snapshot_age_seconds = %v, want small positive", age)
	}
	if _, err := col.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s = m.Registry().Snapshot()
	if lag := s.Gauges["wal_lag_records"]; lag != 0 {
		t.Fatalf("lag after snapshot = %v, want 0", lag)
	}
	ds := col.DurabilityStats()
	if ds.SnapshotCursor != 3 || ds.LastSeq != 3 {
		t.Fatalf("stats after snapshot = %+v", ds)
	}
}

// TestShutdownGraceDrains: a connection that finishes its stream within
// the grace period lets Shutdown return early, without force-closing.
func TestShutdownGraceDrains(t *testing.T) {
	col := NewShardedCollector(protocol.NewSharded(16, 2.0, 2))
	srv := NewIngestServer(col)
	srv.ErrorLog = func(err error) { t.Error(err) }
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()

	conn, enc, dec := dialIngest(t, addr)
	if err := enc.EncodeBatch([]wire.Msg{wire.Hello(1, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(pointQ(1)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadAnswer(); err != nil {
		t.Fatal(err)
	}

	const grace = 30 * time.Second
	shutDone := make(chan error, 1)
	start := time.Now()
	go func() { shutDone <- srv.Shutdown(grace) }()
	// New connections must be refused while the old one drains.
	waitRefused(t, addr)
	conn.Close() // client drains: stream ends cleanly
	if err := <-shutDone; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= grace {
		t.Fatalf("Shutdown waited the full grace period (%v) despite a drained client", took)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if hellos, _, _ := col.Stats(); hellos != 1 {
		t.Fatalf("drained state: %d hellos, want 1", hellos)
	}
}

// waitRefused polls until dialing addr fails — the listener is down.
func waitRefused(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		c.Close()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("listener still accepting after Shutdown started")
}

// TestShutdownGraceForceCloses: a connection that never drains is
// force-closed once the grace period lapses, and Shutdown still returns
// with the collector quiescent.
func TestShutdownGraceForceCloses(t *testing.T) {
	col := NewShardedCollector(protocol.NewSharded(16, 2.0, 2))
	srv := NewIngestServer(col)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()

	conn, enc, dec := dialIngest(t, addr)
	defer conn.Close()
	if err := enc.EncodeBatch([]wire.Msg{wire.Hello(1, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(pointQ(1)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadAnswer(); err != nil {
		t.Fatal(err)
	}

	// The client now idles with the stream open; Shutdown must cut it.
	start := time.Now()
	if err := srv.Shutdown(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("Shutdown returned before the grace period (%v)", took)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The client observes the force-close as EOF/reset on its next read.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := dec.Next(); err == nil || errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("expected the idle connection to be force-closed, got %v", err)
	}
	if hellos, _, _ := col.Stats(); hellos != 1 {
		t.Fatalf("state after force-close: %d hellos, want 1", hellos)
	}
}

// TestShutdownRefusesNewConns: connections accepted racily after
// Shutdown flips the closed bit are dropped by track, not served.
func TestShutdownIdempotentAndCloseAfter(t *testing.T) {
	srv := NewIngestServer(NewShardedCollector(protocol.NewSharded(16, 2.0, 2)))
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	<-ready
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Shutdown again and Close after Shutdown are both no-ops.
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
