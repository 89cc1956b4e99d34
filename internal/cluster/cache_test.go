package cluster

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"rtf/internal/hh"
	"rtf/internal/obs"
	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/internal/wire"
)

type gwClient struct {
	conn net.Conn
	enc  *wire.Encoder
	dec  *wire.Decoder
}

func dialGateway(t *testing.T, addr string) *gwClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &gwClient{conn: conn, enc: wire.NewEncoder(conn), dec: wire.NewDecoder(conn)}
}

func (c *gwClient) close() { c.conn.Close() }

// series round-trips one v2 series query.
func (c *gwClient) series(t *testing.T) []float64 {
	t.Helper()
	if err := c.enc.Encode(wire.QueryV2(wire.QuerySeries, 0, 0)); err != nil {
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

// ingestAndFence ships a batch and fences it with a point query.
func (c *gwClient) ingestAndFence(t *testing.T, ms []wire.Msg) {
	t.Helper()
	if err := c.enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := c.enc.Encode(wire.QueryV2(wire.QueryPoint, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.dec.ReadAnswer(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayAnswerCacheExact pins the exact-mode cache protocol on one
// deterministic interleaving: an ingesting session's fencing query is
// never served from the cache (it must run its own gather, which fills an
// entry of its own range), a clean session's first query at another range
// misses and fills, its repeat hits without touching any backend, and any
// later ingest invalidates the entry.
func TestGatewayAnswerCacheExact(t *testing.T) {
	for _, pl := range testPlacements {
		t.Run(pl.name, func(t *testing.T) { testAnswerCacheExact(t, pl) })
	}
}

func testAnswerCacheExact(t *testing.T, pl testPlacement) {
	const d, scale = 16, 2.0
	c := pl.serve(t, transport.BoolMode(d, scale), transport.ClusterOptions{}, nil)
	gwReg, gwAddr := c.reg, c.addr
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
		t.Fatalf("after fenced ingest: hits=%d misses=%d, want 0/1 (a fencing query is never served from the cache)", hits, misses)
	}

	reader := dialGateway(t, gwAddr)
	defer reader.close()
	_, gathered := gathersOf(gwReg)
	first := reader.series(t)
	c.tap.take()
	if _, hits, misses, _ := counters(); hits != 0 || misses != 2 {
		t.Fatalf("clean first query: hits=%d misses=%d, want 0/2", hits, misses)
	}

	second := reader.series(t)
	if got := c.tap.take(); len(got) != 0 {
		t.Fatalf("cache hit still asked the backends: they wrote %d frames", len(got))
	}
	// What an operator sees of two identical reads on an idle gateway:
	// two queries under the front's label, one gather.
	if _, full := gathersOf(gwReg); full != gathered+1 {
		t.Fatalf("two identical series reads ran %d gathers, want 1", full-gathered)
	}
	if n := gwReg.Counter(obs.Label("queries_total", "mechanism", pl.label, "kind", "series")).Value(); n != 2 {
		t.Fatalf(`queries_total{mechanism=%q,kind="series"} = %d, want 2`, pl.label, n)
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
			if m.Type == wire.MsgHello {
				serial.Register(int(m.Order))
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

	// A reshard moves the counters, so where there can be one the read
	// behind it gathers afresh — and answers what the read before it did.
	// A static map refuses, and its entry stays good.
	view := c.gw.View()
	_, err := c.gw.Reshard(view.Members, view.K)
	if err != nil && !errors.Is(err, errStatic) {
		t.Fatal(err)
	}
	fourth := reader.series(t)
	for i := range third {
		if fourth[i] != third[i] {
			t.Fatalf("series value %d across a reshard: %v != %v", i, fourth[i], third[i])
		}
	}
	wantHits, wantMisses := hits, misses+1
	if err != nil {
		wantHits, wantMisses = hits+1, misses
	}
	if _, h, m, _ := counters(); h != wantHits || m != wantMisses {
		t.Fatalf("read behind Reshard (err=%v): hits/misses = %d/%d, want %d/%d", err, h, m, wantHits, wantMisses)
	}
}

// TestGatewayQueryCoalesced fires a burst of identical queries from
// concurrent clean sessions at a cold cache and checks the single-
// flight latch collapsed them: the backends see far fewer sums fetches
// than one scatter per query would cause, every query is answered
// bit-for-bit, and the counters stay coherent.
func TestGatewayQueryCoalesced(t *testing.T) {
	for _, pl := range testPlacements {
		t.Run(pl.name, func(t *testing.T) { testQueryCoalesced(t, pl) })
	}
}

func testQueryCoalesced(t *testing.T, pl testPlacement) {
	const (
		d, scale = 16, 1.5
		queries  = 16
	)
	c := pl.serve(t, transport.BoolMode(d, scale), transport.ClusterOptions{}, nil)
	gwReg, gwAddr := c.reg, c.addr

	seeder := dialGateway(t, gwAddr)
	seeder.ingestAndFence(t, clusterMsgs(31, d, 60, 8))
	seeder.close()

	serial := protocol.NewServer(d, scale)
	for _, m := range clusterMsgs(31, d, 60, 8) {
		if m.Type == wire.MsgHello {
			serial.Register(int(m.Order))
		} else {
			serial.Ingest(m.Report())
		}
	}
	want := serial.EstimateSeries()
	before := c.tap.sumsFrames()

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

	// One scatter per query would cost queries×perGather fetches; the
	// latch must do far better. A couple of racing leaders are allowed
	// (a flight can complete between a waiter's epoch load and join).
	fetches := c.tap.sumsFrames() - before
	if fetches >= int64(queries*pl.perGather/2) {
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

// TestGatewayCacheBitForBitUnderConcurrentIngest is the cluster half of
// the race-pass property test, run for all three modes: writer sessions
// forward and fence batches while reader sessions hammer queries
// through the cache; when the writers quiesce, a fresh clean session's
// answers must be bit-for-bit a serial server fed every report. Run
// with -race in CI.
func TestGatewayCacheBitForBitUnderConcurrentIngest(t *testing.T) {
	over := func(run func(*testing.T, testPlacement)) func(*testing.T) {
		return func(t *testing.T) {
			for _, pl := range testPlacements {
				t.Run(pl.name, func(t *testing.T) { run(t, pl) })
			}
		}
	}
	t.Run("boolean", over(testCacheChurnBoolean))
	t.Run("domain", over(func(t *testing.T, pl testPlacement) { testCacheChurnDomain(t, pl, false) }))
	t.Run("hashed", over(func(t *testing.T, pl testPlacement) { testCacheChurnDomain(t, pl, true) }))
}

func testCacheChurnBoolean(t *testing.T, pl testPlacement) {
	const d, scale, writers, rounds = 16, 1.25, 3, 6
	gwAddr := pl.serve(t, transport.BoolMode(d, scale), transport.ClusterOptions{}, nil).addr

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
				if m.Type == wire.MsgHello {
					serial.Register(int(m.Order))
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
func testCacheChurnDomain(t *testing.T, pl testPlacement, hashed bool) {
	const (
		d, m, g, scale   = 16, 40, 8, 2.0
		writers, rounds  = 3, 5
		usersPerRound    = 15
		reportsPerWriter = 4
	)
	enc := hh.LolohaEncoding(m, g, 0xabcd)
	mode := transport.DomainMode(d, hh.ExactEncoding(m), scale)
	if hashed {
		mode = transport.DomainMode(d, enc, scale)
	}
	gwAddr := pl.serve(t, mode, transport.ClusterOptions{}, nil).addr

	// Hashed ingest tags reports with the bucket, exact with the item.
	tag := func(item int) int {
		if hashed {
			return enc.Bucket(item)
		}
		return item
	}
	writerBatch := func(w, r int) []wire.Msg {
		var ms []wire.Msg
		base := (w*rounds + r) * usersPerRound
		for u := 0; u < usersPerRound; u++ {
			user := 1000 + base + u
			item := (user * 7) % m
			if hashed {
				ms = append(ms, wire.HashedDomainHello(user, tag(item), 0, enc.Seed))
			} else {
				ms = append(ms, wire.DomainHello(user, item, 0))
			}
			for i := 0; i < reportsPerWriter; i++ {
				bit := int8(1)
				if (user+i)%3 == 0 {
					bit = -1
				}
				ms = append(ms, wire.FromDomainReport(tag(item), protocol.Report{
					User: user, Order: 0, J: 1 + (user+i)%d, Bit: bit,
				}))
			}
		}
		return ms
	}
	topK := func(c *gwClient, at, k int) wire.DomainAnswerFrame {
		t.Helper()
		if err := c.enc.Encode(wire.DomainQuery(wire.QueryTopK, 0, at, 0, k)); err != nil {
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
				case wire.MsgDomainHello, wire.MsgHashedDomainHello:
					if hashed {
						ref.(*hh.HashedDomainServer).Inner().Register(0, int(msg.Item), int(msg.Order))
					} else {
						ref.(*hh.DomainServer).Register(0, int(msg.Item), int(msg.Order))
					}
				case wire.MsgDomainReport:
					rep := protocol.Report{User: msg.User, Order: int(msg.Order), J: msg.J, Bit: msg.Bit}
					if hashed {
						ref.(*hh.HashedDomainServer).Inner().Ingest(0, int(msg.Item), rep)
					} else {
						ref.(*hh.DomainServer).Ingest(0, int(msg.Item), rep)
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

// ---------------------------------------------------------------------------
// Scope: a gather fetches the columns its read evaluates, and a cache
// entry answers only the reads its scope covers.

// point round-trips one v2 point query.
func (c *gwClient) point(t *testing.T, at int) float64 {
	t.Helper()
	if err := c.enc.Encode(wire.QueryV2(wire.QueryPoint, at, at)); err != nil {
		t.Fatal(err)
	}
	if err := c.enc.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := c.dec.ReadAnswer()
	if err != nil {
		t.Fatal(err)
	}
	return a.Values[0]
}

// gathersOf reads gathers_total{scope="range"} and {scope="full"}.
func gathersOf(reg *obs.Registry) (ranged, full int64) {
	return reg.Counter(obs.Label("gathers_total", "scope", "range")).Value(),
		reg.Counter(obs.Label("gathers_total", "scope", "full")).Value()
}

// fillsOf reads answer_cache_fills_total{by="fence"} and {by="miss"}.
func fillsOf(reg *obs.Registry) (fence, miss int64) {
	return reg.Counter(obs.Label("answer_cache_fills_total", "by", "fence")).Value(),
		reg.Counter(obs.Label("answer_cache_fills_total", "by", "miss")).Value()
}

func serialOf(d int, scale float64, batches ...[]wire.Msg) *protocol.Server {
	serial := protocol.NewServer(d, scale)
	for _, ms := range batches {
		for _, m := range ms {
			if m.Type == wire.MsgHello {
				serial.Register(int(m.Order))
			} else {
				serial.Ingest(m.Report())
			}
		}
	}
	return serial
}

// scopeCluster is a metered Boolean gateway over one placement's tapped
// backends.
func scopeCluster(t *testing.T, pl testPlacement, d int, scale float64, configure func(*Gateway)) (gw *Gateway, gwReg *obs.Registry, gwAddr string, tap *backendTap) {
	t.Helper()
	c := pl.serve(t, transport.BoolMode(d, scale), transport.ClusterOptions{}, configure)
	return c.gw, c.reg, c.addr, c.tap
}

// TestGatewayCacheScope pins the cache's scope rules on one deterministic
// interleaving: a fence gather is scoped and fills an entry of its read's
// scope, which hits for that range only — for a clean connection and,
// from its next read on, for the writer; the second range inside the
// epoch costs exactly one full gather, and from then on every read of the
// epoch hits.
func TestGatewayCacheScope(t *testing.T) {
	for _, pl := range testPlacements {
		t.Run(pl.name, func(t *testing.T) { testCacheScope(t, pl) })
	}
}

func testCacheScope(t *testing.T, pl testPlacement) {
	const d, scale = 16, 2.0
	gw, gwReg, gwAddr, _ := scopeCluster(t, pl, d, scale, nil)
	batch := clusterMsgs(61, d, 40, 6)
	serial := serialOf(d, scale, batch)
	expect := func(what string, ranged, full int64) {
		t.Helper()
		if r, f := gathersOf(gwReg); r != ranged || f != full {
			t.Fatalf("%s: gathers range/full = %d/%d, want %d/%d", what, r, f, ranged, full)
		}
	}

	writer := dialGateway(t, gwAddr)
	defer writer.close()
	if err := writer.enc.EncodeBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got, want := writer.point(t, 5), serial.EstimateAt(5); got != want {
		t.Fatalf("the fence, point 5 = %v, want %v", got, want)
	}
	expect("fence", 1, 0)
	gw.cache.mu.Lock()
	e := gw.cache.entry
	gw.cache.mu.Unlock()
	if e == nil || e.Scope() != (wire.Scope{L: 1, R: 5}) || e.stamp != gw.ingestEpoch.Load() {
		t.Fatalf("the fence gather left entry %+v at epoch %d, want a current [1..5] entry", e, gw.ingestEpoch.Load())
	}

	reader := dialGateway(t, gwAddr)
	defer reader.close()
	for _, c := range []*gwClient{reader, reader, writer} {
		if got, want := c.point(t, 5), serial.EstimateAt(5); got != want {
			t.Fatalf("point 5 = %v, want %v", got, want)
		}
	}
	expect("the fence's range, from a clean connection and from the writer", 1, 0)

	// Another period: the scoped entry must not answer it.
	if got, want := reader.point(t, 7), serial.EstimateAt(7); got != want {
		t.Fatalf("point 7 = %v, want %v (a [1..5] entry answered another period?)", got, want)
	}
	expect("second range in the epoch", 1, 1)
	want := serial.EstimateSeries()
	for i := 0; i < 4; i++ {
		for at := 1; at <= d; at++ {
			if got := reader.point(t, at); got != want[at-1] {
				t.Fatalf("point %d = %v, want %v", at, got, want[at-1])
			}
		}
		for i, v := range reader.series(t) {
			if v != want[i] {
				t.Fatalf("series value %d = %v, want %v", i, v, want[i])
			}
		}
	}
	expect("a sweep of every period", 1, 1)
	hits, misses := gwReg.Counter("query_cache_hits_total").Value(), gwReg.Counter("query_cache_misses_total").Value()
	if misses != 2 || hits != 3+4*(d+1) {
		t.Fatalf("hits/misses = %d/%d, want %d/2", hits, misses, 3+4*(d+1))
	}
	if fence, miss := fillsOf(gwReg); fence != 1 || miss != 1 {
		t.Fatalf("answer_cache_fills_total fence/miss = %d/%d, want 1/1", fence, miss)
	}
}

// TestGatewayCacheScopeSweep sends the read shape of rtf-bench's accuracy
// pass through a hashed gateway — 8 periods × 1,024 PointItem — behind a
// write: one scoped gather (the fence, which fills the cache), one full
// gather (the first read at another period), 8,191 hits, every answer the
// serial server's.
func TestGatewayCacheScopeSweep(t *testing.T) {
	const d, scale, users = 32, 2.5, 200
	enc0 := hashedClusterEnc()
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, addr, done := startHashedBackend(t, d, enc0, scale)
		addrs = append(addrs, addr)
		defer func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Error(err)
			}
		}()
	}
	gw, err := New(transport.DomainMode(d, enc0, scale), Static(addrs), transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	gw.Metrics = transport.NewServerMetrics(reg)
	ready := make(chan net.Addr, 1)
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.ListenAndServe("127.0.0.1:0", ready) }()
	c := dialGateway(t, (<-ready).String())
	defer func() {
		c.close()
		gw.Close()
		if err := <-gwDone; err != nil {
			t.Error(err)
		}
	}()

	ms := hashedMsgs(71, d, users, 5)
	serial := hh.NewHashedDomainServer(d, enc0, scale, 1)
	for _, m := range ms {
		if m.Type == wire.MsgHashedDomainHello {
			serial.Inner().Register(0, int(m.Item), int(m.Order))
		} else {
			serial.Inner().Ingest(0, int(m.Item), protocol.Report{User: m.User, Order: int(m.Order), J: m.J, Bit: m.Bit})
		}
	}
	pointItem := func(item, at int) float64 {
		t.Helper()
		if err := c.enc.Encode(wire.DomainQuery(wire.QueryPointItem, item, at, 0, 0)); err != nil {
			t.Fatal(err)
		}
		if err := c.enc.Flush(); err != nil {
			t.Fatal(err)
		}
		a, err := c.dec.ReadDomainAnswer()
		if err != nil {
			t.Fatal(err)
		}
		return a.Values[0]
	}
	if err := c.enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	pointItem(0, d) // the fence: scoped
	if r, f := gathersOf(reg); r != 1 || f != 0 {
		t.Fatalf("fence: gathers range/full = %d/%d, want 1/0", r, f)
	}
	for i := 1; i <= 8; i++ {
		at := i * d / 8
		for x := 0; x < 1024; x++ {
			want, _ := serial.EstimateItemAtCached(x, at)
			if got := pointItem(x, at); got != want {
				t.Fatalf("item %d at %d: gateway %v, serial %v", x, at, got, want)
			}
		}
	}
	if r, f := gathersOf(reg); r != 1 || f != 1 {
		t.Fatalf("8 × 1,024 PointItem sweep: gathers range/full = %d/%d, want 1/1", r, f)
	}
	if hits := reg.Counter("query_cache_hits_total").Value(); hits != 8*1024-1 {
		t.Fatalf("8 × 1,024 PointItem sweep: %d cache hits, want %d", hits, 8*1024-1)
	}
}

// TestGatewayFlightScope pins the single-flight rule: a clean read joins
// an in-flight gather only if that gather covers its scope; otherwise it
// gathers its own columns at once and publishes nothing.
func TestGatewayFlightScope(t *testing.T) {
	const d, scale = 16, 2.0
	gw, _, gwAddr, _ := scopeCluster(t, testPlacements[0], d, scale, nil)
	writer := dialGateway(t, gwAddr)
	defer writer.close()
	writer.ingestAndFence(t, clusterMsgs(91, d, 40, 6))
	// The fence filled the cache; this test is about reads that find
	// nothing current there.
	gw.cache.entry = nil
	open := func() *session {
		s := gw.openSession(0).(*session)
		t.Cleanup(func() { s.Close(true) })
		return s
	}
	five, seven := wire.Scope{L: 1, R: 5}, wire.Scope{L: 1, R: 7}

	// land plays a leader coming back with e, except that the flight stays
	// installed, done, until the test clears it: a joiner that is still on
	// its way finds the landed flight rather than no flight, so what it
	// gets does not depend on when it is scheduled.
	land := func(f *gatherFlight, e *cacheEntry) {
		e.stamp = gw.ingestEpoch.Load()
		gw.cache.mu.Lock()
		f.entry = e
		gw.cache.mu.Unlock()
		close(f.done)
	}
	clearFlight := func() {
		gw.cache.mu.Lock()
		gw.cache.flight = nil
		gw.cache.mu.Unlock()
	}

	// A leader is out gathering [1..5] and will not be back for a while.
	flight := &gatherFlight{done: make(chan struct{}), scope: five}
	gw.cache.flight = flight
	e, hit, coalesced, err := gw.acquireEntry(open(), seven)
	if err != nil || hit || coalesced || e.Scope() != seven {
		t.Fatalf("a [1..7] read beside a [1..5] flight: entry %v hit=%v coalesced=%v err=%v; want its own [1..7] gather", e, hit, coalesced, err)
	}
	if gw.cache.entry != nil || gw.cache.flight != flight {
		t.Fatal("the uncovered read published its gather or disturbed the flight")
	}

	// A [1..5] read joins; the leader's entry is what it gets.
	joined := make(chan *cacheEntry, 1)
	go func() {
		e, _, coalesced, err := gw.acquireEntry(open(), five)
		if err != nil || !coalesced {
			t.Errorf("a [1..5] read beside a [1..5] flight: coalesced=%v err=%v", coalesced, err)
		}
		joined <- e
	}()
	select {
	case <-joined:
		t.Fatal("the covered read did not wait for the flight")
	case <-time.After(50 * time.Millisecond):
	}
	led, err := open().scatter(five)
	if err != nil {
		t.Fatal(err)
	}
	land(flight, led)
	if got := <-joined; got != led {
		t.Fatalf("the joiner got %v, the leader gathered %v", got, led)
	}
	clearFlight()

	// A full flight covers every read.
	flight = &gatherFlight{done: make(chan struct{}), scope: wire.Scope{}}
	gw.cache.flight = flight
	go func() {
		e, _, coalesced, err := gw.acquireEntry(open(), seven)
		if err != nil || !coalesced {
			t.Errorf("a [1..7] read beside a full flight: coalesced=%v err=%v", coalesced, err)
		}
		joined <- e
	}()
	whole, err := open().scatter(wire.Scope{})
	if err != nil {
		t.Fatal(err)
	}
	land(flight, whole)
	if got := <-joined; got != whole {
		t.Fatalf("a [1..7] read beside a full flight got %v, want the flight's %v", got, whole)
	}
	clearFlight()
}

// TestGatewayStackedScope checks scopes pass through stacked gateways: a
// point read at the outer one is a scoped request at the inner one and a
// scoped fetch at the backends, a scoped sums request is answered with
// the scoped frame, and an unscoped one with the full version-1 frame.
func TestGatewayStackedScope(t *testing.T) {
	const d, scale = 16, 2.5
	_, innerReg, innerAddr, tap := scopeCluster(t, testPlacements[0], d, scale, nil)
	outer, err := New(transport.BoolMode(d, scale), Static([]string{innerAddr}), transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	outerReg := obs.NewRegistry()
	outer.Metrics = transport.NewServerMetrics(outerReg)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- outer.ListenAndServe("127.0.0.1:0", ready) }()
	c := dialGateway(t, (<-ready).String())
	defer func() {
		c.close()
		outer.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	ms := clusterMsgs(95, d, 40, 4)
	serial := serialOf(d, scale, ms)
	if err := c.enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	if got, want := c.point(t, 11), serial.EstimateAt(11); got != want {
		t.Fatalf("stacked point 11 = %v, want %v", got, want)
	}
	for name, reg := range map[string]*obs.Registry{"outer": outerReg, "inner": innerReg} {
		if r, f := gathersOf(reg); r != 1 || f != 0 {
			t.Fatalf("%s gateway: gathers range/full = %d/%d, want 1/0", name, r, f)
		}
	}
	if got := tap.sumsFrames(); got != 2 {
		t.Fatalf("backends answered %d sums requests, want 2", got)
	}

	sums := func(req wire.Msg) wire.RawSums {
		t.Helper()
		if err := c.enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		if err := c.enc.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := c.dec.ReadSums()
		if err != nil {
			t.Fatal(err)
		}
		return wire.RawSums(f)
	}
	scoped := wire.Sums()
	scoped.L, scoped.R = 3, 12
	got, whole := sums(scoped), sums(wire.Sums())
	if got.Scope != (wire.Scope{L: 3, R: 12}) || whole.Scope != (wire.Scope{}) || len(whole.Counters) != protocol.RawStride(d) {
		t.Fatalf("scoped request answered with scope %v, unscoped with scope %v and %d counters", got.Scope, whole.Scope, len(whole.Counters))
	}
	st, err := transport.BoolMode(d, scale).Fold([]wire.RawSums{whole})
	if err != nil {
		t.Fatal(err)
	}
	if want := st.(interface{ Sums(wire.Scope) wire.RawSums }).Sums(got.Scope); !got.Equal(want) {
		t.Fatalf("scoped frame through two gateways %+v, the full frame's columns %+v", got, want)
	}
	if users, _, _ := got.Row(0); users != 40 {
		t.Fatalf("scoped frame counts %d users, want 40", users)
	}
}
