package transport

import (
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rtf/internal/hh"
	"rtf/internal/persist"
	"rtf/internal/protocol"
)

func durableMeta(d int, scale float64) persist.Meta {
	return persist.Meta{Mechanism: "test", D: d, K: 4, Eps: 1, Scale: scale}
}

// genMsgs builds a deterministic hello+report stream for n users.
func genMsgs(d, n int) []Msg {
	var ms []Msg
	for u := 0; u < n; u++ {
		order := u % 3
		ms = append(ms, Hello(u, order))
		for r := 0; r < 4; r++ {
			j := 1 + (u*7+r*3)%(d>>uint(order))
			bit := int8(1)
			if (u+r)%2 == 0 {
				bit = -1
			}
			ms = append(ms, FromReport(protocol.Report{User: u, Order: order, J: j, Bit: bit}))
		}
	}
	return ms
}

// TestDurableCollectorCrashRecovery ingests through a DurableCollector,
// snapshots mid-stream, ingests more, then simulates a crash by simply
// abandoning the collector (nothing flushed or closed beyond what
// SendBatch itself guarantees) and recovers into a fresh accumulator:
// estimates must match a serial server fed the same messages.
func TestDurableCollectorCrashRecovery(t *testing.T) {
	const d, scale = 64, 5.5
	dir := t.TempDir()
	meta := durableMeta(d, scale)

	acc := protocol.NewSharded(d, scale, 4)
	dc, rec, err := OpenDurable(acc, dir, meta, DurableOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotCursor != 0 || rec.Replayed != 0 {
		t.Fatalf("fresh dir recovered something: %+v", rec)
	}

	serial := protocol.NewServer(d, scale)
	ms := genMsgs(d, 60)
	feedSerial := func(batch []Msg) {
		for _, m := range batch {
			if m.Type == MsgHello {
				serial.Register(m.Order)
			} else {
				serial.Ingest(m.Report())
			}
		}
	}
	third := len(ms) / 3
	if err := dc.SendBatch(1, ms[:third]); err != nil {
		t.Fatal(err)
	}
	feedSerial(ms[:third])
	if _, err := dc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := dc.SendBatch(2, ms[third:2*third]); err != nil {
		t.Fatal(err)
	}
	if err := dc.SendBatch(3, ms[2*third:2*third+1]); err != nil {
		t.Fatal(err)
	}
	if err := dc.SendBatch(0, ms[2*third+1:]); err != nil {
		t.Fatal(err)
	}
	feedSerial(ms[third:])
	// Crash: dc is dropped without Close or a final snapshot.

	acc2 := protocol.NewSharded(d, scale, 2)
	dc2, rec2, err := OpenDurable(acc2, dir, meta, DurableOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	if rec2.SnapshotCursor == 0 || rec2.Replayed == 0 {
		t.Fatalf("expected mixed snapshot+WAL recovery, got %+v", rec2)
	}
	if acc2.Users() != serial.Users() {
		t.Fatalf("users after recovery: %d vs %d", acc2.Users(), serial.Users())
	}
	wantSeries := serial.EstimateSeries()
	for i, got := range acc2.EstimateSeries() {
		if got != wantSeries[i] {
			t.Fatalf("series[%d] after recovery: %v vs %v", i, got, wantSeries[i])
		}
	}
	if got, want := acc2.EstimateChange(9, 41), serial.EstimateChange(9, 41); got != want {
		t.Fatalf("change after recovery: %v vs %v", got, want)
	}

	// Ingestion continues seamlessly after recovery.
	extra := []Msg{Hello(1000, 0), FromReport(protocol.Report{User: 1000, Order: 0, J: 5, Bit: 1})}
	if err := dc2.SendBatch(0, extra); err != nil {
		t.Fatal(err)
	}
	feedSerial(extra)
	if got, want := acc2.EstimateAt(d), serial.EstimateAt(d); got != want {
		t.Fatalf("estimate after post-recovery ingest: %v vs %v", got, want)
	}
}

// TestDurableCollectorMetaMismatch: a data directory written under one
// configuration must be rejected under another.
func TestDurableCollectorMetaMismatch(t *testing.T) {
	const d, scale = 32, 2.0
	dir := t.TempDir()
	acc := protocol.NewSharded(d, scale, 1)
	dc, _, err := OpenDurable(acc, dir, durableMeta(d, scale), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.SendBatch(0, genMsgs(d, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	dc.Close()

	other := durableMeta(d, scale)
	other.Eps = 0.25
	_, _, err = OpenDurable(protocol.NewSharded(d, scale, 1), dir, other, DurableOptions{})
	if err == nil || !strings.Contains(err.Error(), "snapshot taken with") {
		t.Fatalf("meta mismatch: %v", err)
	}
}

// TestDurableCollectorRejectsInvalidBeforeJournaling: an invalid batch
// must reach neither the WAL nor the accumulator.
func TestDurableCollectorRejectsInvalidBeforeJournaling(t *testing.T) {
	const d, scale = 32, 2.0
	dir := t.TempDir()
	acc := protocol.NewSharded(d, scale, 1)
	dc, _, err := OpenDurable(acc, dir, durableMeta(d, scale), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Msg{Hello(0, 0), FromReport(protocol.Report{User: 1, Order: 0, J: d + 1, Bit: 1})}
	if err := dc.SendBatch(0, bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if acc.Users() != 0 {
		t.Fatal("invalid batch partially applied")
	}
	dc.Close()
	// Recovery must see an empty log: nothing was journaled.
	acc2 := protocol.NewSharded(d, scale, 1)
	_, rec, err := OpenDurable(acc2, dir, durableMeta(d, scale), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 0 || acc2.Users() != 0 {
		t.Fatalf("invalid batch leaked into the WAL: %+v users=%d", rec, acc2.Users())
	}
}

// TestDurableCollectorConcurrent hammers the durable collector from
// many goroutines with a concurrent snapshot, then recovers and checks
// against a serial server (addition is commutative, so any interleaving
// must recover to the same counters).
func TestDurableCollectorConcurrent(t *testing.T) {
	const d, scale, workers, perWorker = 64, 3.0, 8, 40
	dir := t.TempDir()
	acc := protocol.NewSharded(d, scale, 4)
	dc, _, err := OpenDurable(acc, dir, durableMeta(d, scale), DurableOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u := w*perWorker + i
				batch := []Msg{
					Hello(u, 0),
					FromReport(protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: 1}),
				}
				if err := dc.SendBatch(w, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	snapErr := make(chan error, 1)
	go func() {
		for i := 0; i < 5; i++ {
			if _, err := dc.Snapshot(); err != nil {
				snapErr <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		snapErr <- nil
	}()
	wg.Wait()
	if err := <-snapErr; err != nil {
		t.Fatal(err)
	}
	dc.Close()

	serial := protocol.NewServer(d, scale)
	for u := 0; u < workers*perWorker; u++ {
		serial.Register(0)
		serial.Ingest(protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: 1})
	}
	acc2 := protocol.NewSharded(d, scale, 1)
	if _, _, err := OpenDurable(acc2, dir, durableMeta(d, scale), DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	want := serial.EstimateSeries()
	for i, got := range acc2.EstimateSeries() {
		if got != want[i] {
			t.Fatalf("series[%d]: %v vs %v", i, got, want[i])
		}
	}
}

// TestShutdownDrains starts an ingest server, opens a client
// connection, and checks Shutdown closes the listener, lets the client
// finish a stream it already started, and returns with the collector
// quiescent.
func TestShutdownDrains(t *testing.T) {
	acc := protocol.NewSharded(32, 2.0, 2)
	srv := NewIngestServer(NewShardedCollector(acc))
	ready := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := NewEncoder(conn)
	if err := enc.EncodeBatch([]Msg{Hello(0, 0), FromReport(protocol.Report{User: 0, Order: 0, J: 3, Bit: 1})}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fence before shutdown so the batch is known-applied.
	if err := enc.Encode(pointQ(3)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(conn).ReadAnswer(); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(5 * time.Second) }()

	// New connections are refused once the listener is down; the
	// existing connection keeps draining until the client closes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown began")
		}
		time.Sleep(5 * time.Millisecond)
	}
	conn.Close()

	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the client closed")
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	if acc.Users() != 1 {
		t.Fatalf("users after drain: %d", acc.Users())
	}
}

// TestRecoverParentDataDir opens data directories written by the commit
// before the serving-core refactor (one per durable store shape: a
// snapshot cut mid-stream plus a WAL suffix, abandoned without Close)
// and checks the recovered counters equal a fresh store fed the same
// stream: the snapshot format, the WAL records and the meta checks did
// not move. testdata/parent-datadir was generated with that commit's
// OpenDurable, OpenDurableDomain, OpenDurableHashedDomain and
// OpenDurableShardMap over fixtureStream.
func TestRecoverParentDataDir(t *testing.T) {
	const d, scale, m, users, S = 16, 2.5, 4, 12, 4
	enc := hh.LolohaEncoding(1000, 8, 0xfeed)
	base := persist.Meta{Mechanism: "fixture", D: d, K: 2, Eps: 1, Scale: scale}
	domainMeta, hashedMeta := base, base
	domainMeta.M = m
	hashedMeta.M, hashedMeta.G, hashedMeta.Encoding, hashedMeta.HashSeed = enc.M, enc.G, enc.Name, enc.Seed

	fixtureStream := func(mode Mode) []Msg {
		var ms []Msg
		for u := 0; u < users; u++ {
			order := u % 3
			switch mode.Name() {
			case "boolean":
				ms = append(ms, Hello(u, order))
			case "domain":
				ms = append(ms, DomainHello(u, u%m, order))
			default:
				ms = append(ms, HashedDomainHello(u, u%enc.G, order, enc.Seed))
			}
			for r := 0; r < 3; r++ {
				bit := int8(1)
				if (u+r)%2 == 0 {
					bit = -1
				}
				rep := protocol.Report{User: u, Order: order, J: 1 + (u*7+r*3)%(d>>uint(order)), Bit: bit}
				switch mode.Name() {
				case "boolean":
					ms = append(ms, FromReport(rep))
				case "domain":
					ms = append(ms, FromDomainReport(u%m, rep))
				default:
					ms = append(ms, FromDomainReport(u%enc.G, rep))
				}
			}
		}
		return ms
	}

	for _, tc := range []struct {
		dir  string
		meta persist.Meta
		mk   func() Store
	}{
		{"bool", base, func() Store { return NewCollector(BoolMode(d, scale), 2) }},
		{"domain", domainMeta, func() Store { return NewCollector(DomainMode(d, hh.ExactEncoding(m), scale), 2) }},
		{"hashed", hashedMeta, func() Store { return NewCollector(DomainMode(d, enc, scale), 2) }},
		{"shardmap", base, func() Store { return NewShardMap(BoolMode(d, scale), S, "n0") }},
	} {
		t.Run(tc.dir, func(t *testing.T) {
			// Recovery writes into the directory, so it runs on a copy.
			dir, src := t.TempDir(), filepath.Join("testdata", "parent-datadir", tc.dir)
			files, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				b, err := os.ReadFile(filepath.Join(src, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, rec, err := OpenDurableStore(tc.mk(), dir, tc.meta, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			if rec.SnapshotCursor != 1 || rec.Replayed != 1 {
				t.Fatalf("recovered %+v, want the snapshot at cursor 1 plus one replayed record", rec)
			}
			want := tc.mk()
			if err := want.SendBatch(0, fixtureStream(want.Mode())); err != nil {
				t.Fatal(err)
			}
			if g, w := sumsOf(t, got, -1), sumsOf(t, want, -1); !reflect.DeepEqual(g, w) {
				t.Fatalf("recovered sums %+v, want %+v", g, w)
			}
			if got.Users() != users {
				t.Fatalf("recovered %d users, want %d", got.Users(), users)
			}
		})
	}
}
