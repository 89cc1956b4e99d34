package transport

import (
	"testing"
	"time"

	"rtf/internal/hh"
	"rtf/internal/obs"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// slotServer serves an exact-domain collector over four counter shards
// on loopback with the counter gauges registered.
func slotServer(t *testing.T) (col *Collector, srv *IngestServer, addr string, closeSrv func()) {
	t.Helper()
	col = NewCollector(DomainMode(16, hh.ExactEncoding(8), 2.0), 4)
	srv = NewIngestServer(col)
	srv.ErrorLog = func(err error) { t.Error(err) }
	srv.Metrics = NewServerMetrics(obs.NewRegistry())
	srv.Metrics.RegisterCounters(col)
	addr, closeSrv = startServer(t, srv)
	return col, srv, addr, closeSrv
}

// sendAcked sends one acked batch registering user and reporting for
// it, and waits for its positive ack.
func sendAcked(t *testing.T, enc *wire.Encoder, dec *wire.Decoder, user int) {
	t.Helper()
	batch := []wire.Msg{wire.DomainHello(user, user%8, 0), wire.FromDomainReport(user%8, protocol.Report{User: user, Order: 0, J: 1 + user%16, Bit: 1})}
	if err := enc.EncodeAckedBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if applied, err := dec.ReadBatchAck(); err != nil || !applied {
		t.Fatalf("user %d: applied=%v err=%v", user, applied, err)
	}
}

// wantCounters checks the counter gauges against shards allocated
// matrices of the collector's shape.
func wantCounters(t *testing.T, srv *IngestServer, shards int) {
	t.Helper()
	g := srv.Metrics.Registry().Snapshot().Gauges
	bytes := float64(shards * 8 * protocol.RawStride(16) * 8)
	if g["counter_shards_allocated"] != float64(shards) || g["counter_resident_bytes"] != bytes {
		t.Fatalf("counter_shards_allocated = %v, counter_resident_bytes = %v; want %d, %v",
			g["counter_shards_allocated"], g["counter_resident_bytes"], shards, bytes)
	}
}

// TestSequentialConnsReuseOneShard: twenty connections, one after the
// other, each send one acked batch; each takes the slot its predecessor
// freed, so one counter shard of four is ever allocated.
func TestSequentialConnsReuseOneShard(t *testing.T) {
	col, srv, addr, closeSrv := slotServer(t)
	defer closeSrv()
	wantCounters(t, srv, 0)
	for user := 0; user < 20; user++ {
		conn, enc, dec := dialIngest(t, addr)
		sendAcked(t, enc, dec, user)
		conn.Close()
		// The slot is free once the server has let the connection go.
		for deadline := time.Now().Add(5 * time.Second); srv.Metrics.ActiveConns.Value() != 0; {
			if time.Now().After(deadline) {
				t.Fatal("the server never let a closed connection go")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if col.Users() != 20 {
		t.Fatalf("%d users registered, want 20", col.Users())
	}
	wantCounters(t, srv, 1)
}

// TestConcurrentConnsTakeDistinctShards: two live connections hold two
// slots, so their writes land on two counter shards.
func TestConcurrentConnsTakeDistinctShards(t *testing.T) {
	_, srv, addr, closeSrv := slotServer(t)
	defer closeSrv()
	for user := 0; user < 2; user++ {
		conn, enc, dec := dialIngest(t, addr)
		defer conn.Close()
		sendAcked(t, enc, dec, user)
	}
	wantCounters(t, srv, 2)
}
