package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"rtf/internal/hh"
	"rtf/internal/obs"
	"rtf/internal/protocol"
	"rtf/internal/transport"
)

// startMeteredBackend is startBackend plus a metrics registry installed
// before the server starts serving, so cache tests can count exactly
// how many sums fetches reached the backend.
func startMeteredBackend(t *testing.T, d int, scale float64) (*testBackend, *obs.Registry) {
	t.Helper()
	acc := protocol.NewSharded(d, scale, 2)
	srv := transport.NewIngestServer(transport.NewShardedCollector(acc))
	reg := obs.NewRegistry()
	srv.Metrics = transport.NewServerMetrics(reg)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	return &testBackend{srv: srv, acc: acc, addr: (<-ready).String(), done: done}, reg
}

// startMeteredGateway is startGateway with a metrics registry installed
// before the gateway starts serving (Metrics must not be set once
// connections are being accepted).
func startMeteredGateway(t *testing.T, d int, scale float64, addrs []string) (*Gateway, *obs.Registry, string, chan error) {
	t.Helper()
	client, err := transport.NewClusterClient(addrs, transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gw := New(d, scale, client)
	gw.ErrorLog = func(err error) { t.Log("gateway:", err) }
	reg := obs.NewRegistry()
	gw.Metrics = transport.NewServerMetrics(reg)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- gw.ListenAndServe("127.0.0.1:0", ready) }()
	return gw, reg, (<-ready).String(), done
}

// sumsFetches reads how many raw-sums requests a backend has answered.
func sumsFetches(reg *obs.Registry) int64 {
	return reg.Counter(obs.Label("queries_total", "mechanism", "boolean", "kind", "sums")).Value()
}

type gwClient struct {
	conn net.Conn
	enc  *transport.Encoder
	dec  *transport.Decoder
}

func dialGateway(t *testing.T, addr string) *gwClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &gwClient{conn: conn, enc: transport.NewEncoder(conn), dec: transport.NewDecoder(conn)}
}

func (c *gwClient) close() { c.conn.Close() }

// series round-trips one v2 series query.
func (c *gwClient) series(t *testing.T) []float64 {
	t.Helper()
	if err := c.enc.Encode(transport.QueryV2(transport.QuerySeries, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.enc.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := c.dec.ReadAnswer()
	if err != nil {
		t.Fatal(err)
	}
	return a.Values
}

// ingestAndFence ships a batch and fences it with a v1 point query.
func (c *gwClient) ingestAndFence(t *testing.T, ms []transport.Msg) {
	t.Helper()
	if err := c.enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := c.enc.Encode(transport.Query(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.dec.Next(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayAnswerCacheExact pins the exact-mode cache protocol on one
// deterministic interleaving: an ingesting session's fencing query
// bypasses the cache (it must run its own gather), a clean session's
// first query misses and fills, its repeat hits without touching any
// backend, and any later fenced ingest invalidates the entry.
func TestGatewayAnswerCacheExact(t *testing.T) {
	const d, scale = 16, 2.0
	var addrs []string
	var regs []*obs.Registry
	for i := 0; i < 2; i++ {
		b, reg := startMeteredBackend(t, d, scale)
		addrs = append(addrs, b.addr)
		regs = append(regs, reg)
		defer b.stop(t)
	}
	gw, gwReg, gwAddr, gwDone := startMeteredGateway(t, d, scale, addrs)
	defer func() {
		gw.Close()
		if err := <-gwDone; err != nil {
			t.Error(err)
		}
	}()
	counters := func() (eligible, hits, misses, coalesced int64) {
		return gwReg.Counter("query_cache_eligible_total").Value(),
			gwReg.Counter("query_cache_hits_total").Value(),
			gwReg.Counter("query_cache_misses_total").Value(),
			gwReg.Counter("query_coalesced_total").Value()
	}

	writer := dialGateway(t, gwAddr)
	defer writer.close()
	writer.ingestAndFence(t, clusterMsgs(21, d, 40, 6))
	if _, hits, misses, _ := counters(); hits != 0 || misses != 1 {
		t.Fatalf("after fenced ingest: hits=%d misses=%d, want 0/1 (fencing query bypasses the cache)", hits, misses)
	}

	reader := dialGateway(t, gwAddr)
	defer reader.close()
	first := reader.series(t)
	fetchesAfterMiss := sumsFetches(regs[0]) + sumsFetches(regs[1])
	if _, hits, misses, _ := counters(); hits != 0 || misses != 2 {
		t.Fatalf("clean first query: hits=%d misses=%d, want 0/2", hits, misses)
	}

	second := reader.series(t)
	if got := sumsFetches(regs[0]) + sumsFetches(regs[1]); got != fetchesAfterMiss {
		t.Fatalf("cache hit still fetched backends: %d sums fetches, want %d", got, fetchesAfterMiss)
	}
	if _, hits, _, _ := counters(); hits != 1 {
		t.Fatalf("clean repeat query did not hit the cache")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached series value %d: %v != %v", i, second[i], first[i])
		}
	}

	// New fenced ingest invalidates: the next clean query must miss and
	// reflect the new reports bit-for-bit.
	writer.ingestAndFence(t, clusterMsgs(22, d, 30, 4))
	third := reader.series(t)
	serial := protocol.NewServer(d, scale)
	for _, seed := range []uint64{21, 22} {
		for _, m := range clusterMsgs(seed, d, map[uint64]int{21: 40, 22: 30}[seed], map[uint64]int{21: 6, 22: 4}[seed]) {
			if m.Type == transport.MsgHello {
				serial.Register(m.Order)
			} else {
				serial.Ingest(m.Report())
			}
		}
	}
	want := serial.EstimateSeries()
	for i := range want {
		if third[i] != want[i] {
			t.Fatalf("post-invalidation series value %d: gateway %v, serial %v", i, third[i], want[i])
		}
	}
	eligible, hits, misses, coalesced := counters()
	if hits+misses != eligible {
		t.Fatalf("counter coherence: hits %d + misses %d != eligible %d", hits, misses, eligible)
	}
	if coalesced > misses {
		t.Fatalf("coalesced %d exceeds misses %d", coalesced, misses)
	}
}

// TestGatewayQueryCoalesced fires a burst of identical queries from
// concurrent clean sessions at a cold cache and checks the single-
// flight latch collapsed them: the backends see far fewer sums fetches
// than one scatter per query would cause, every query is answered
// bit-for-bit, and the counters stay coherent.
func TestGatewayQueryCoalesced(t *testing.T) {
	const (
		d, scale = 16, 1.5
		backends = 2
		queries  = 16
	)
	var addrs []string
	var regs []*obs.Registry
	for i := 0; i < backends; i++ {
		b, reg := startMeteredBackend(t, d, scale)
		addrs = append(addrs, b.addr)
		regs = append(regs, reg)
		defer b.stop(t)
	}
	gw, gwReg, gwAddr, gwDone := startMeteredGateway(t, d, scale, addrs)
	defer func() {
		gw.Close()
		if err := <-gwDone; err != nil {
			t.Error(err)
		}
	}()

	seeder := dialGateway(t, gwAddr)
	seeder.ingestAndFence(t, clusterMsgs(31, d, 60, 8))
	seeder.close()

	serial := protocol.NewServer(d, scale)
	for _, m := range clusterMsgs(31, d, 60, 8) {
		if m.Type == transport.MsgHello {
			serial.Register(m.Order)
		} else {
			serial.Ingest(m.Report())
		}
	}
	want := serial.EstimateSeries()
	before := sumsFetches(regs[0]) + sumsFetches(regs[1])

	// All sessions blocked on one line, released together.
	start := make(chan struct{})
	var wg sync.WaitGroup
	clients := make([]*gwClient, queries)
	for i := range clients {
		clients[i] = dialGateway(t, gwAddr)
		defer clients[i].close()
	}
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(c *gwClient) {
			defer wg.Done()
			<-start
			got := c.series(t)
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("concurrent series value %d: gateway %v, serial %v", j, got[j], want[j])
					return
				}
			}
		}(clients[i])
	}
	close(start)
	wg.Wait()

	// One scatter per query would cost queries×backends fetches; the
	// latch must do far better. A couple of racing leaders are allowed
	// (a flight can complete between a waiter's epoch load and join).
	fetches := sumsFetches(regs[0]) + sumsFetches(regs[1]) - before
	if fetches >= queries*backends/2 {
		t.Fatalf("%d concurrent identical queries cost %d backend fetches — coalescing is not working", queries, fetches)
	}
	eligible, hits, misses, coalesced :=
		gwReg.Counter("query_cache_eligible_total").Value(),
		gwReg.Counter("query_cache_hits_total").Value(),
		gwReg.Counter("query_cache_misses_total").Value(),
		gwReg.Counter("query_coalesced_total").Value()
	if hits+misses != eligible {
		t.Fatalf("counter coherence: hits %d + misses %d != eligible %d", hits, misses, eligible)
	}
	if coalesced > misses {
		t.Fatalf("coalesced %d exceeds misses %d", coalesced, misses)
	}
}

// TestGatewayAnswerCacheTTL pins the opt-in bounded-staleness mode: a
// cached answer younger than the TTL keeps being served even though
// later fenced ingest has made it stale, and it is bit-for-bit the
// answer that was cached — never a partial or merged state.
func TestGatewayAnswerCacheTTL(t *testing.T) {
	const d, scale = 16, 2.0
	var addrs []string
	for i := 0; i < 2; i++ {
		b := startBackend(t, d, scale)
		addrs = append(addrs, b.addr)
		defer b.stop(t)
	}
	client, err := transport.NewClusterClient(addrs, transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gw := New(d, scale, client)
	gw.ErrorLog = func(err error) { t.Log("gateway:", err) }
	gw.AnswerCacheTTL = time.Hour
	ready := make(chan net.Addr, 1)
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.ListenAndServe("127.0.0.1:0", ready) }()
	gwAddr := (<-ready).String()
	defer func() {
		gw.Close()
		if err := <-gwDone; err != nil {
			t.Error(err)
		}
	}()

	writer := dialGateway(t, gwAddr)
	defer writer.close()
	writer.ingestAndFence(t, clusterMsgs(41, d, 40, 6))

	reader := dialGateway(t, gwAddr)
	defer reader.close()
	cachedAnswer := reader.series(t)

	// The writer ships a second batch WITHOUT a fence and queries on the
	// same connection: the session has unfenced forwards, so bounded
	// staleness must not apply — the query runs its own gather, fencing
	// the batch and reflecting every report bit-for-bit.
	if err := writer.enc.EncodeBatch(clusterMsgs(42, d, 30, 4)); err != nil {
		t.Fatal(err)
	}
	writerView := writer.series(t)
	serial := protocol.NewServer(d, scale)
	for _, seed := range []uint64{41, 42} {
		for _, m := range clusterMsgs(seed, d, map[uint64]int{41: 40, 42: 30}[seed], map[uint64]int{41: 6, 42: 4}[seed]) {
			if m.Type == transport.MsgHello {
				serial.Register(m.Order)
			} else {
				serial.Ingest(m.Report())
			}
		}
	}
	want := serial.EstimateSeries()
	for i := range want {
		if writerView[i] != want[i] {
			t.Fatalf("unfenced writer's view value %d: gateway %v, serial %v", i, writerView[i], want[i])
		}
	}

	// The clean reader, meanwhile, keeps getting the cached answer even
	// though the second batch is now fenced and applied: bounded
	// staleness served within the TTL, bit-for-bit the entry that was
	// cached — never a partial or merged state.
	stale := reader.series(t)
	for i := range cachedAnswer {
		if stale[i] != cachedAnswer[i] {
			t.Fatalf("TTL-mode value %d changed under the reader: %v != cached %v", i, stale[i], cachedAnswer[i])
		}
	}
}

// TestGatewayCacheBitForBitUnderConcurrentIngest is the cluster half of
// the race-pass property test, run for all three modes: writer sessions
// forward and fence batches while reader sessions hammer queries
// through the cache; when the writers quiesce, a fresh clean session's
// answers must be bit-for-bit a serial server fed every report. Run
// with -race in CI.
func TestGatewayCacheBitForBitUnderConcurrentIngest(t *testing.T) {
	t.Run("boolean", func(t *testing.T) { testCacheChurnBoolean(t) })
	t.Run("domain", func(t *testing.T) { testCacheChurnDomain(t, false) })
	t.Run("hashed", func(t *testing.T) { testCacheChurnDomain(t, true) })
}

func testCacheChurnBoolean(t *testing.T) {
	const d, scale, writers, rounds = 16, 1.25, 3, 6
	var addrs []string
	for i := 0; i < 2; i++ {
		b := startBackend(t, d, scale)
		addrs = append(addrs, b.addr)
		defer b.stop(t)
	}
	gw, gwAddr, gwDone := startGateway(t, d, scale, addrs, transport.ClusterOptions{})
	defer func() {
		gw.Close()
		if err := <-gwDone; err != nil {
			t.Error(err)
		}
	}()

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			c := dialGateway(t, gwAddr)
			defer c.close()
			for r := 0; r < rounds; r++ {
				c.ingestAndFence(t, clusterMsgs(uint64(500+w*rounds+r), d, 20, 4))
			}
		}(w)
	}
	readerWG.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer readerWG.Done()
			c := dialGateway(t, gwAddr)
			defer c.close()
			for {
				select {
				case <-stop:
					return
				default:
					if got := c.series(t); len(got) != d {
						t.Errorf("series answered %d values, want %d", len(got), d)
						return
					}
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	serial := protocol.NewServer(d, scale)
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			for _, m := range clusterMsgs(uint64(500+w*rounds+r), d, 20, 4) {
				if m.Type == transport.MsgHello {
					serial.Register(m.Order)
				} else {
					serial.Ingest(m.Report())
				}
			}
		}
	}
	want := serial.EstimateSeries()
	fresh := dialGateway(t, gwAddr)
	defer fresh.close()
	got := fresh.series(t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quiesced series value %d: gateway %v, serial %v", i, got[i], want[i])
		}
	}
}

// testCacheChurnDomain drives the same churn through a domain (or
// hashed-domain) gateway and compares quiesced top-k and point answers
// bit-for-bit against a serial server.
func testCacheChurnDomain(t *testing.T, hashed bool) {
	const (
		d, m, g, scale   = 16, 40, 8, 2.0
		writers, rounds  = 3, 5
		usersPerRound    = 15
		reportsPerWriter = 4
	)
	enc := hh.LolohaEncoding(m, g, 0xabcd)
	var addrs []string
	for i := 0; i < 2; i++ {
		var srv *transport.IngestServer
		var addr string
		var done chan error
		if hashed {
			hs := hh.NewHashedDomainServer(d, enc, scale, 2)
			srv = transport.NewIngestServer(transport.NewHashedDomainCollector(hs))
			ready := make(chan net.Addr, 1)
			done = make(chan error, 1)
			go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
			addr = (<-ready).String()
		} else {
			srv, _, addr, done = startDomainBackend(t, d, m, scale)
		}
		addrs = append(addrs, addr)
		defer func(srv *transport.IngestServer, done chan error) {
			srv.Close()
			if err := <-done; err != nil {
				t.Error(err)
			}
		}(srv, done)
	}
	client, err := transport.NewClusterClient(addrs, transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var gw *Gateway
	if hashed {
		gw = NewHashedDomain(d, enc, scale, client)
	} else {
		gw = NewDomain(d, m, scale, client)
	}
	gw.ErrorLog = func(err error) { t.Log("gateway:", err) }
	ready := make(chan net.Addr, 1)
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.ListenAndServe("127.0.0.1:0", ready) }()
	gwAddr := (<-ready).String()
	defer func() {
		gw.Close()
		if err := <-gwDone; err != nil {
			t.Error(err)
		}
	}()

	// Hashed ingest tags reports with the bucket, exact with the item.
	tag := func(item int) int {
		if hashed {
			return enc.Bucket(item)
		}
		return item
	}
	writerBatch := func(w, r int) []transport.Msg {
		var ms []transport.Msg
		base := (w*rounds + r) * usersPerRound
		for u := 0; u < usersPerRound; u++ {
			user := 1000 + base + u
			item := (user * 7) % m
			if hashed {
				ms = append(ms, transport.HashedDomainHello(user, tag(item), 0, enc.Seed))
			} else {
				ms = append(ms, transport.DomainHello(user, item, 0))
			}
			for i := 0; i < reportsPerWriter; i++ {
				bit := int8(1)
				if (user+i)%3 == 0 {
					bit = -1
				}
				ms = append(ms, transport.FromDomainReport(tag(item), protocol.Report{
					User: user, Order: 0, J: 1 + (user+i)%d, Bit: bit,
				}))
			}
		}
		return ms
	}
	topK := func(c *gwClient, at, k int) transport.DomainAnswerFrame {
		t.Helper()
		if err := c.enc.Encode(transport.DomainQuery(transport.QueryTopK, 0, at, 0, k)); err != nil {
			t.Fatal(err)
		}
		if err := c.enc.Flush(); err != nil {
			t.Fatal(err)
		}
		a, err := c.dec.ReadDomainAnswer()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			c := dialGateway(t, gwAddr)
			defer c.close()
			for r := 0; r < rounds; r++ {
				ms := writerBatch(w, r)
				if err := c.enc.EncodeBatch(ms); err != nil {
					t.Error(err)
					return
				}
				// Fence with a top-k query.
				a := topK(c, d, 5)
				if len(a.Items) != 5 {
					t.Errorf("fencing top-k answered %d items", len(a.Items))
					return
				}
			}
		}(w)
	}
	readerWG.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer readerWG.Done()
			c := dialGateway(t, gwAddr)
			defer c.close()
			for {
				select {
				case <-stop:
					return
				default:
					if a := topK(c, d/2, 6); len(a.Items) != 6 {
						t.Errorf("top-k answered %d items, want 6", len(a.Items))
						return
					}
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	// Serial reference fed every writer's reports.
	var ref interface {
		EstimateItemAt(item, t int) float64
		TopK(t, k int) []hh.ItemCount
	}
	if hashed {
		ref = hh.NewHashedDomainServer(d, enc, scale, 1)
	} else {
		ref = hh.NewDomainServer(d, m, scale, 1)
	}
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			for _, msg := range writerBatch(w, r) {
				switch msg.Type {
				case transport.MsgDomainHello, transport.MsgHashedDomainHello:
					if hashed {
						ref.(*hh.HashedDomainServer).Register(0, msg.Item, msg.Order)
					} else {
						ref.(*hh.DomainServer).Register(0, msg.Item, msg.Order)
					}
				case transport.MsgDomainReport:
					rep := protocol.Report{User: msg.User, Order: msg.Order, J: msg.J, Bit: msg.Bit}
					if hashed {
						ref.(*hh.HashedDomainServer).Ingest(0, msg.Item, rep)
					} else {
						ref.(*hh.DomainServer).Ingest(0, msg.Item, rep)
					}
				}
			}
		}
	}

	fresh := dialGateway(t, gwAddr)
	defer fresh.close()
	for _, at := range []int{1, d / 2, d} {
		want := ref.TopK(at, 8)
		a := topK(fresh, at, 8)
		for i, ic := range want {
			if a.Items[i] != ic.Item || a.Values[i] != ic.Count {
				t.Fatalf("quiesced top-k at t=%d: gateway %v/%v, serial %v", at, a.Items, a.Values, want)
			}
		}
	}
}
