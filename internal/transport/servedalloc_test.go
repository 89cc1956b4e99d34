package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/obs"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// Parameters of the served-read pins: a horizon whose covers reach six
// intervals, an exact domain small enough that every item is a one-byte
// varint, and a loloha catalogue hashed to a few buckets.
const (
	servedD     = 64
	servedM     = 100
	servedCat   = 5000
	servedG     = 8
	servedSeed  = 0x5e7d
	servedScale = 1.5
)

// servedStores builds one populated store per mode: a few users a row,
// reports at every order, on two counter shards so a read folds both.
func servedStores() (boolean, exact, hashed Store) {
	acc := protocol.NewSharded(servedD, servedScale, 2)
	ds := hh.NewDomainServer(servedD, servedM, servedScale, 2)
	hs := hh.NewHashedDomainServer(servedD, hh.LolohaEncoding(servedCat, servedG, servedSeed), servedScale, 2)
	for u := 0; u < 96; u++ {
		bit := int8(1)
		if u%3 == 0 {
			bit = -1
		}
		order := u % dyadic.NumOrders(servedD)
		for j := 1; j <= servedD>>order; j += 1 + u%4 {
			r := protocol.Report{User: u, Order: order, J: j, Bit: bit}
			acc.IngestSum(u%2, dyadic.Interval{Order: order, Index: j}, int64(bit))
			ds.Ingest(u%2, u%servedM, r)
			hs.Inner().Ingest(u%2, u%servedG, r)
		}
		ds.Register(u%2, u%servedM, order)
		hs.Inner().Register(u%2, u%servedG, order)
	}
	return NewShardedCollector(acc), NewDomainCollector(ds), NewHashedDomainCollector(hs)
}

// servedShardMaps builds one populated membership store per mode, keyed
// like servedReads: four virtual shards, the users of servedStores as
// one frame of records, so every shard is written.
func servedShardMaps() map[string]Store {
	maps := map[string]Store{
		"boolean": NewShardMap(BoolMode(servedD, servedScale), 4, "n0"),
		"exact":   NewShardMap(DomainMode(servedD, hh.ExactEncoding(servedM), servedScale), 4, "n0"),
		"hashed":  NewShardMap(DomainMode(servedD, hh.LolohaEncoding(servedCat, servedG, servedSeed), servedScale), 4, "n0"),
	}
	for _, sm := range maps {
		rows := max(sm.Mode().Ingest().Rows, 1)
		var run []wire.Rec
		for u := 0; u < 96; u++ {
			bit := int8(1)
			if u%3 == 0 {
				bit = -1
			}
			order := u % dyadic.NumOrders(servedD)
			run = append(run, wire.Rec{User: u, Item: uint32(u % rows), Order: uint8(order)})
			for j := 1; j <= servedD>>order; j += 1 + u%4 {
				run = append(run, wire.Rec{User: u, Item: uint32(u % rows), Order: uint8(order), J: uint32(j), Bit: bit})
			}
		}
		if err := sm.Apply(0, run, nil); err != nil {
			panic(err)
		}
	}
	return maps
}

// servedRead is one read kind as the allocation pin drives it: the
// frames one measured run sends, in order. Two frames at different
// periods keep every top-k sweep cold.
type servedRead struct {
	name string
	msgs []wire.Msg
}

// servedReads lists, per store, every read kind a client can send, in
// the order they are driven: on the Boolean store the cold reads come
// before the first series read fills its memo.
func servedReads() []struct {
	store string
	reads []servedRead
} {
	return []struct {
		store string
		reads []servedRead
	}{
		{"boolean", []servedRead{
			{"cold point", []wire.Msg{wire.QueryV2(wire.QueryPoint, 43, 0), wire.QueryV2(wire.QueryPoint, 63, 0)}},
			{"change", []wire.Msg{wire.QueryV2(wire.QueryChange, 3, 62), wire.QueryV2(wire.QueryChange, 17, 17)}},
			{"warm series", []wire.Msg{wire.QueryV2(wire.QuerySeries, 0, 0)}},
			{"warm window", []wire.Msg{wire.QueryV2(wire.QueryWindow, 5, 59)}},
			{"warm point", []wire.Msg{wire.QueryV2(wire.QueryPoint, 43, 0)}},
		}},
		{"exact", []servedRead{
			{"point-item", []wire.Msg{wire.DomainQuery(wire.QueryPointItem, 7, 43, 0, 0), wire.DomainQuery(wire.QueryPointItem, 99, 64, 0, 0)}},
			{"series-item", []wire.Msg{wire.DomainQuery(wire.QuerySeriesItem, 7, 0, 0, 0)}},
			{"cold top-k", []wire.Msg{wire.DomainQuery(wire.QueryTopK, 0, 43, 0, 10), wire.DomainQuery(wire.QueryTopK, 0, 21, 0, 10)}},
			{"warm top-k", []wire.Msg{wire.DomainQuery(wire.QueryTopK, 0, 43, 0, 10)}},
		}},
		{"hashed", []servedRead{
			{"cold point-item", []wire.Msg{wire.DomainQuery(wire.QueryPointItem, 4321, 43, 0, 0), wire.DomainQuery(wire.QueryPointItem, 4321, 21, 0, 0)}},
			{"cold top-k", []wire.Msg{wire.DomainQuery(wire.QueryTopK, 0, 43, 0, 10), wire.DomainQuery(wire.QueryTopK, 0, 21, 0, 10)}},
			{"warm point-item", []wire.Msg{wire.DomainQuery(wire.QueryPointItem, 4321, 43, 0, 0)}},
			{"warm top-k", []wire.Msg{wire.DomainQuery(wire.QueryTopK, 0, 43, 0, 10)}},
		}},
	}
}

// TestServedReadsAllocFree pins every warm read a node serves at zero
// allocations, at a collector and at a membership backend's shard map
// of each mode (a shard's sums request, a gateway's export, is not a
// client read and stays out): a client on one end of a net.Pipe writes
// pre-encoded query frames and reads each answer's known bytes into a
// fixed buffer, so testing.AllocsPerRun counts only the server's frame
// loop, which runs with metrics on as every front runs it. The expected
// bytes are the store's own in-process answers, so the pin also checks
// the served answers bit for bit.
func TestServedReadsAllocFree(t *testing.T) {
	boolean, exact, hashed := servedStores()
	maps := servedShardMaps()
	stores := map[string][]Store{
		"boolean": {boolean, maps["boolean"]},
		"exact":   {exact, maps["exact"]},
		"hashed":  {hashed, maps["hashed"]},
	}
	for _, s := range servedReads() {
		for _, store := range stores[s.store] {
			label := fmt.Sprintf("%s %T", s.store, store)
			srv := NewIngestServer(store)
			srv.Metrics = NewServerMetrics(obs.NewRegistry())
			client, server := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- srv.serveConn(0, server) }()
			buf := make([]byte, 1<<16)
			for _, r := range s.reads {
				frames, wants := make([][]byte, len(r.msgs)), make([][]byte, len(r.msgs))
				for i := range r.msgs {
					var err error
					if frames[i], err = appendMsg(nil, &r.msgs[i]); err != nil {
						t.Fatal(err)
					}
					var want bytes.Buffer
					enc := wire.NewEncoder(&want)
					if _, _, err := store.Answer(r.msgs[i], enc, new(AnswerScratch)); err != nil {
						t.Fatal(err)
					}
					if err := enc.Flush(); err != nil {
						t.Fatal(err)
					}
					wants[i] = want.Bytes()
				}
				read := func() {
					for i, f := range frames {
						if _, err := client.Write(f); err != nil {
							t.Fatal(err)
						}
						got := buf[:len(wants[i])]
						if _, err := io.ReadFull(client, got); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, wants[i]) {
							t.Fatalf("%s %s: served answer differs from the in-process one", label, r.name)
						}
					}
				}
				read() // grow the connection's buffers and warm what is warm
				if allocs := testing.AllocsPerRun(50, read) / float64(len(frames)); allocs != 0 {
					t.Errorf("%s %s: %.1f allocations per read, want 0", label, r.name, allocs)
				}
			}
			client.Close()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestServedReadCounters runs one fixed read sequence through the frame
// loops of four fronts sharing one instrument set — Boolean, exact
// domain, hashed domain, and a Boolean shard map's membership front,
// which answers from its live accumulator and gathers nothing — plus
// the gateway's own read-path events, and asserts the exact counter
// map: every counter a handle records into under the name and label
// spelling, and with the value, that a registry lookup per event gave,
// and no counter for a kind or label nothing recorded.
func TestServedReadCounters(t *testing.T) {
	const d = 16
	reg := obs.NewRegistry()
	m := NewServerMetrics(reg)
	enc := hh.LolohaEncoding(servedCat, servedG, servedSeed)
	fronts := []struct {
		store Store
		reads []wire.Msg
	}{
		{NewShardedCollector(protocol.NewSharded(d, servedScale, 2)), []wire.Msg{
			wire.QueryV2(wire.QueryPoint, 5, 0),  // cold: a miss
			wire.QueryV2(wire.QuerySeries, 0, 0), // a miss that fills
			wire.QueryV2(wire.QueryPoint, 5, 0),  // a hit
			wire.QueryV2(wire.QueryWindow, 2, 9), // a hit
			wire.QueryV2(wire.QueryChange, 3, 7), // no memo
			wire.Sums(),
		}},
		{NewDomainCollector(hh.NewDomainServer(d, servedM, servedScale, 2)), []wire.Msg{
			wire.DomainQuery(wire.QueryPointItem, 7, 5, 0, 0), // the exact rows: no memo
			wire.DomainQuery(wire.QuerySeriesItem, 7, 0, 0, 0),
			wire.DomainQuery(wire.QueryTopK, 0, 5, 0, 3), // a miss
			wire.DomainQuery(wire.QueryTopK, 0, 5, 0, 3), // a hit
			wire.DomainSums(),
		}},
		{NewHashedDomainCollector(hh.NewHashedDomainServer(d, enc, servedScale, 2)), []wire.Msg{
			wire.DomainQuery(wire.QueryPointItem, 4321, 5, 0, 0), // a miss
			wire.DomainQuery(wire.QueryPointItem, 4321, 5, 0, 0), // a hit
			wire.DomainQuery(wire.QueryTopK, 0, 5, 0, 3),         // a miss: the sweep is warm, the selection is not
			wire.HashedDomainSums(servedCat, servedG, servedSeed),
		}},
		{NewShardMap(BoolMode(d, servedScale), 4, "n0"), []wire.Msg{
			wire.QueryV2(wire.QueryPoint, 5, 0),  // the live accumulator's: a miss
			wire.QueryV2(wire.QuerySeries, 0, 0), // a miss that fills
			wire.ShardSums(2),                    // one shard: no memo
			wire.Sums(),                          // no memo
		}},
	}
	for _, f := range fronts {
		srv := NewIngestServer(f.store)
		srv.Metrics = m
		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.serveConn(0, server) }()
		cenc, cdec := wire.NewEncoder(client), wire.NewDecoder(client)
		for _, q := range f.reads {
			if err := cenc.Encode(q); err != nil {
				t.Fatal(err)
			}
			if err := cenc.Flush(); err != nil {
				t.Fatal(err)
			}
			var err error
			switch q.Type {
			case wire.MsgQueryV2:
				_, err = cdec.ReadAnswer()
			case wire.MsgDomainQuery:
				_, err = cdec.ReadDomainAnswer()
			default:
				_, err = f.store.Mode().ReadSums(cdec)
			}
			if err != nil {
				t.Fatalf("%s read %+v: %v", f.store.Mode().Name(), q, err)
			}
		}
		client.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// A gateway's read-path events, as cluster records them.
	m.CountCacheFill(false)
	m.CountCacheFill(true)
	m.CountCacheFill(true)
	m.CountCoalesced()
	m.ObserveGather(wire.Scope{L: 1, R: 4}, time.Millisecond, time.Microsecond)
	m.CountSumsFrameBytes(120)
	m.CountSumsFrameBytes(7)

	want := map[string]int64{
		"ingest_messages_total":      0,
		"ingest_batches_total":       0,
		"ingest_acked_batches_total": 0,
		"ingest_shed_batches_total":  0,
		"ingest_ack_flushes_total":   0,

		`queries_total{mechanism="boolean",kind="point"}`:  2,
		`queries_total{mechanism="boolean",kind="series"}`: 1,
		`queries_total{mechanism="boolean",kind="window"}`: 1,
		`queries_total{mechanism="boolean",kind="change"}`: 1,
		`queries_total{mechanism="boolean",kind="sums"}`:   1,

		`queries_total{mechanism="domain",kind="point_item"}`:  1,
		`queries_total{mechanism="domain",kind="series_item"}`: 1,
		`queries_total{mechanism="domain",kind="topk"}`:        2,
		`queries_total{mechanism="domain",kind="sums"}`:        1,

		`queries_total{mechanism="hashed-domain",kind="point_item"}`: 2,
		`queries_total{mechanism="hashed-domain",kind="topk"}`:       1,
		`queries_total{mechanism="hashed-domain",kind="sums"}`:       1,

		`queries_total{mechanism="membership",kind="point"}`:      1,
		`queries_total{mechanism="membership",kind="series"}`:     1,
		`queries_total{mechanism="membership",kind="shard_sums"}`: 1,
		`queries_total{mechanism="membership",kind="sums"}`:       1,

		"query_cache_eligible_total": 11,
		"query_cache_hits_total":     4,
		"query_cache_misses_total":   7,
		"query_coalesced_total":      1,

		`gathers_total{scope="range"}`:         1,
		`answer_cache_fills_total{by="miss"}`:  1,
		`answer_cache_fills_total{by="fence"}`: 2,
		"sums_frame_bytes_total":               127,
	}
	s := reg.Snapshot()
	for name, v := range want {
		if got, ok := s.Counters[name]; !ok || got != v {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, v)
		}
	}
	for name, v := range s.Counters {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected counter %s = %d", name, v)
		}
	}
	for _, h := range []string{"gather_fetch_seconds", "gather_fold_seconds"} {
		if got := s.Histograms[h].Count; got != 1 {
			t.Errorf("%s holds %d observations, want 1", h, got)
		}
	}
}

// TestServerMetricsConcurrentFirstUse resolves the read path's handles
// from many goroutines at once — a front's first reads arrive on several
// connections together — and checks that every event landed on the one
// registry counter its name selects.
func TestServerMetricsConcurrentFirstUse(t *testing.T) {
	const goroutines, events = 8, 200
	reg := obs.NewRegistry()
	m := NewServerMetrics(reg)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := m.queriesOf("boolean")
			for i := 0; i < events; i++ {
				q.count(wire.QueryV2(wire.QueryPoint, 1, 0))
				m.CountCacheResult(i%2 == 0)
				m.ObserveGather(wire.Scope{}, 0, 0)
				m.CountCacheFill(true)
				m.CountCoalesced()
				m.CountSumsFrameBytes(3)
			}
		}()
	}
	wg.Wait()
	const n = goroutines * events
	want := map[string]int64{
		`queries_total{mechanism="boolean",kind="point"}`: n,
		"query_cache_eligible_total":                      n,
		"query_cache_hits_total":                          n / 2,
		"query_cache_misses_total":                        n / 2,
		`gathers_total{scope="full"}`:                     n,
		`answer_cache_fills_total{by="fence"}`:            n,
		"query_coalesced_total":                           n,
		"sums_frame_bytes_total":                          3 * n,
	}
	s := reg.Snapshot()
	for name, v := range want {
		if got := s.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}
