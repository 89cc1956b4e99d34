package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rtf/internal/obs"
	"rtf/internal/transport"
	"rtf/ldp"
)

// This file pins the rule that lets a fence fill the answer cache: a
// gather publishes exactly when it can prove, by counting its own fences,
// which epoch it left (cache.go). Each test ranges over both placements.

// ask round-trips one read frame and returns the answer's items and
// values. It reports an error instead of failing the test, so that it can
// run beside the test's own goroutine.
func (c *gwClient) ask(q transport.Msg) (items []int, values []float64, err error) {
	if err = c.enc.Encode(q); err == nil {
		err = c.enc.Flush()
	}
	if err != nil {
		return nil, nil, err
	}
	if q.Type == transport.MsgDomainQuery {
		a, err := c.dec.ReadDomainAnswer()
		return a.Items, a.Values, err
	}
	a, err := c.dec.ReadAnswer()
	return nil, a.Values, err
}

// sendAcked ships one acked batch and waits for its ack: the gateway has
// forwarded it — and advanced the ingest epoch — when this returns.
func (c *gwClient) sendAcked(ms []transport.Msg) error {
	err := c.enc.EncodeAckedBatch(ms)
	if err == nil {
		err = c.enc.Flush()
	}
	if err != nil {
		return err
	}
	if applied, err := c.dec.ReadBatchAck(); err != nil || !applied {
		return fmt.Errorf("acked batch: applied=%v err=%v", applied, err)
	}
	return nil
}

// awaitParked waits for a gather's fetch to park on a stalled backend.
func awaitParked(t *testing.T, parked <-chan struct{}) {
	t.Helper()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no backend was asked for its sums")
	}
}

var seriesQuery = transport.QueryV2(transport.QuerySeries, 0, 0)

func sameSeries(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if !sameBits(got, want) {
		t.Fatalf("%s: gateway %v, serial %v", what, got, want)
	}
}

// TestGatewayFenceFillsCache: write → fence read on the writer → every
// read from a second, clean connection is answered from what the fence
// gathered, bit for bit the serial engine's, without a backend round
// trip. Once with a fence that needs every column (then every query shape
// of the mode hits), once with a ranged one (then the same read and a
// different kind over the same range hit).
func TestGatewayFenceFillsCache(t *testing.T) {
	for _, m := range confModes(t) {
		for _, pl := range testPlacements {
			t.Run(m.name+"/"+pl.name, func(t *testing.T) { testFenceFillsCache(t, m, pl) })
		}
	}
}

func testFenceFillsCache(t *testing.T, m confMode, pl testPlacement) {
	c := pl.serve(t, m.mode, transport.ClusterOptions{}, nil)
	oracle := newConfOracle(t, m)
	counter := func(name string) int64 { return c.reg.Counter(name).Value() }
	fetches := func() (n int64) { // scatter_latency_seconds, every backend's
		for name, h := range c.reg.Snapshot().Histograms {
			if strings.HasPrefix(name, "scatter_latency_seconds") {
				n += h.Count
			}
		}
		return n
	}
	write := func(w *gwClient, users ...int) {
		t.Helper()
		var batch []transport.Msg
		for _, u := range users {
			batch = append(batch, m.user(u)...)
		}
		if err := w.enc.EncodeBatch(batch); err != nil {
			t.Fatal(err)
		}
		oracle.feed(t, batch)
	}
	writer, reader := dialGateway(t, c.addr), dialGateway(t, c.addr)
	defer writer.close()
	defer reader.close()

	// A fence over every column.
	write(writer, 0, 1, 2, 3, 4, 5, 6, 7)
	if _, _, err := writer.ask(m.whole[0]); err != nil {
		t.Fatal(err)
	}
	if fence, miss := fillsOf(c.reg); fence != 1 || miss != 0 {
		t.Fatalf("behind the first write: answer_cache_fills_total fence/miss = %d/%d, want 1/0", fence, miss)
	}
	hits, asked, fetched := counter("query_cache_hits_total"), counter("query_cache_eligible_total"), fetches()
	m.check(t, reader.enc, reader.dec, oracle)
	m.check(t, writer.enc, writer.dec, oracle)
	if n := counter("query_cache_eligible_total") - asked; counter("query_cache_hits_total")-hits != n || n == 0 {
		t.Fatalf("%d of the %d reads behind a full fence hit the cache", counter("query_cache_hits_total")-hits, n)
	}
	if got := fetches(); got != fetched {
		t.Fatalf("reads behind a full fence cost %d backend fetches", got-fetched)
	}

	// A ranged fence, then the same read and another kind over its range.
	const at = confD - 2
	same := []struct {
		wire transport.Msg
		q    ldp.Query
	}{
		{transport.QueryV2(transport.QueryPoint, at, 0), ldp.PointQuery(at)},
		{transport.QueryV2(transport.QueryChange, 1, at), ldp.ChangeQuery(1, at)},
	}
	if m.domain != 0 {
		same[0].wire, same[0].q = transport.DomainQuery(transport.QueryTopK, 0, at, 0, 3), ldp.TopKQuery(at, 3)
		same[1].wire, same[1].q = transport.DomainQuery(transport.QueryPointItem, 1, at, 0, 0), ldp.PointItemQuery(1, at)
	}
	check := func(cl *gwClient, i int) {
		t.Helper()
		want, err := oracle.answer(same[i].q)
		if err != nil {
			t.Fatal(err)
		}
		wantVals := want.Series
		if len(wantVals) == 0 {
			wantVals = []float64{want.Value}
		}
		items, vals, err := cl.ask(same[i].wire)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(vals, wantVals) || fmt.Sprint(items) != fmt.Sprint(want.Items) {
			t.Fatalf("%s: got %v %v, want %v %v", same[i].wire.Kind, items, vals, want.Items, wantVals)
		}
	}
	write(writer, 8, 9, 10)
	check(writer, 0) // the fence
	hits, fetched = counter("query_cache_hits_total"), fetches()
	check(reader, 0)
	check(reader, 1)
	check(writer, 1)
	if got := counter("query_cache_hits_total") - hits; got != 3 {
		t.Fatalf("%d of the 3 reads over the ranged fence's range hit the cache", got)
	}
	if got := fetches(); got != fetched {
		t.Fatalf("reads over the ranged fence's range cost %d backend fetches", got-fetched)
	}
	if fence, miss := fillsOf(c.reg); fence != 2 || miss != 0 {
		t.Fatalf("answer_cache_fills_total fence/miss = %d/%d, want 2/0", fence, miss)
	}
}

// TestGatewayFenceRacedByForward parks a fence gather's fetch on a stalled
// backend and starts another session's forward meanwhile. Over
// unreplicated shards the forward runs beside the gather, whose count then
// cannot add up: it must publish nothing. Over replicas the gather holds
// every session parked, the forward waits for it, and the entry it
// published is stale as soon as the forward starts. Either way the next
// clean read gathers, and once the second writer has fenced, every
// connection reads both writes.
func TestGatewayFenceRacedByForward(t *testing.T) {
	for _, pl := range testPlacements {
		t.Run(pl.name, func(t *testing.T) { testFenceRacedByForward(t, pl) })
	}
}

func testFenceRacedByForward(t *testing.T, pl testPlacement) {
	const d, scale = 16, 2.0
	gw, reg, addr, tap := scopeCluster(t, pl, d, scale, nil)
	first, second := clusterMsgs(101, d, 40, 6), clusterMsgs(102, d, 30, 4)
	writer, other, reader := dialGateway(t, addr), dialGateway(t, addr), dialGateway(t, addr)
	defer writer.close()
	defer other.close()
	defer reader.close()

	parked, release := tap.stallSums()
	if err := writer.enc.EncodeBatch(first); err != nil {
		t.Fatal(err)
	}
	fenced := make(chan error, 1)
	go func() {
		_, _, err := writer.ask(seriesQuery)
		fenced <- err
	}()
	awaitParked(t, parked)
	forwarded := make(chan error, 1)
	go func() { forwarded <- other.sendAcked(second) }()
	beside := pl.replicas == 1
	if beside {
		// The forward's ack: it started, and finished, inside the gather.
		if err := <-forwarded; err != nil {
			t.Fatal(err)
		}
	}
	release(false)
	if err := <-fenced; err != nil {
		t.Fatal(err)
	}
	if !beside {
		if err := <-forwarded; err != nil {
			t.Fatal(err)
		}
	}

	gw.cache.mu.Lock()
	e := gw.cache.entry
	gw.cache.mu.Unlock()
	if fence, _ := fillsOf(reg); beside && (e != nil || fence != 0) {
		t.Fatalf("a fence gather raced by a forward was published: entry %+v, %d fills", e, fence)
	} else if !beside && (e == nil || fence != 1 || e.stamp == gw.ingestEpoch.Load()) {
		t.Fatalf("a fence gather over parked sessions left entry %+v (%d fills) at epoch %d, want a published one the forward made stale",
			e, fence, gw.ingestEpoch.Load())
	}
	hits, full := reg.Counter("query_cache_hits_total").Value(), reg.Counter(obs.Label("gathers_total", "scope", "full")).Value()
	if _, _, err := reader.ask(seriesQuery); err != nil {
		t.Fatal(err)
	}
	if h, f := reg.Counter("query_cache_hits_total").Value(), reg.Counter(obs.Label("gathers_total", "scope", "full")).Value(); h != hits || f != full+1 {
		t.Fatalf("the clean read behind the raced fence: %d hits, %d gathers, want 0 and 1", h-hits, f-full)
	}

	want := serialOf(d, scale, first, second).EstimateSeries()
	for _, c := range []*gwClient{other, reader, writer} {
		_, got, err := c.ask(seriesQuery)
		if err != nil {
			t.Fatal(err)
		}
		sameSeries(t, "series once both writers have fenced", got, want)
	}
}

// TestGatewayFenceFailure kills the backend connection under a fence
// gather that a clean reader has joined: the gather publishes nothing and
// fails its own connection only; the joiner falls back to its own gather
// and answers, as does a connection opened afterwards.
func TestGatewayFenceFailure(t *testing.T) {
	for _, pl := range testPlacements {
		t.Run(pl.name, func(t *testing.T) { testFenceFailure(t, pl) })
	}
}

func testFenceFailure(t *testing.T, pl testPlacement) {
	const d, scale = 16, 2.0
	gw, reg, addr, tap := scopeCluster(t, pl, d, scale, nil)
	first := clusterMsgs(111, d, 40, 6)
	want := serialOf(d, scale, first).EstimateSeries()
	writer, joiner := dialGateway(t, addr), dialGateway(t, addr)
	defer writer.close()
	defer joiner.close()

	parked, release := tap.stallSums()
	if err := writer.enc.EncodeBatch(first); err != nil {
		t.Fatal(err)
	}
	fenced := make(chan error, 1)
	go func() {
		_, _, err := writer.ask(seriesQuery)
		fenced <- err
	}()
	awaitParked(t, parked)
	type answer struct {
		values []float64
		err    error
	}
	joined := make(chan answer, 1)
	go func() {
		_, values, err := joiner.ask(seriesQuery)
		joined <- answer{values, err}
	}()
	select {
	case a := <-joined:
		t.Fatalf("a clean read beside a parked fence gather did not wait for it: %v, %v", a.values, a.err)
	case <-time.After(100 * time.Millisecond):
	}
	// The backend applied what it was sent and dies answering the fence.
	release(true)
	if err := <-fenced; err == nil {
		t.Fatal("the writer was answered over a fence that failed")
	}
	a := <-joined
	if a.err != nil {
		t.Fatalf("the joiner of a failed fence gather: %v", a.err)
	}
	sameSeries(t, "the joiner's own gather", a.values, want)
	gw.cache.mu.Lock()
	e := gw.cache.entry
	gw.cache.mu.Unlock()
	// Neither gather was published: the fence failed, and a joiner that
	// falls back gathers unshared (had it come too late to join, it would
	// have led, and filled).
	if fence, miss := fillsOf(reg); e != nil || fence != 0 || miss != 0 {
		t.Fatalf("entry %+v, fills fence/miss %d/%d after a failed fence gather and its joiner's fallback, want none", e, fence, miss)
	}
	if n := reg.Counter("query_coalesced_total").Value(); n != 0 {
		t.Fatalf("query_coalesced_total = %d: a failed flight served its joiner", n)
	}

	fresh := dialGateway(t, addr)
	defer fresh.close()
	_, got, err := fresh.ask(seriesQuery)
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, "a connection opened after the failure", got, want)
}

// TestGatewayUncleanSessionNeverShares: whatever the cache holds and
// whoever is out gathering, a session with unfenced forwards is answered
// by its own gather — never a hit, never a join.
func TestGatewayUncleanSessionNeverShares(t *testing.T) {
	for _, pl := range testPlacements {
		t.Run(pl.name, func(t *testing.T) { testUncleanNeverShares(t, pl) })
	}
}

func testUncleanNeverShares(t *testing.T, pl testPlacement) {
	const d, scale = 16, 2.0
	// Under a TTL an entry stays servable whatever the epoch does, so the
	// writer below finds one that any clean session would be served.
	gw, reg, addr, _ := scopeCluster(t, pl, d, scale, func(gw *Gateway) { gw.AnswerCacheTTL = time.Hour })
	first, second, third := clusterMsgs(121, d, 40, 6), clusterMsgs(122, d, 30, 4), clusterMsgs(123, d, 20, 4)
	shared := func() int64 {
		return reg.Counter("query_cache_hits_total").Value() + reg.Counter("query_coalesced_total").Value()
	}
	writer, reader := dialGateway(t, addr), dialGateway(t, addr)
	defer writer.close()
	defer reader.close()
	if err := writer.enc.EncodeBatch(first); err != nil {
		t.Fatal(err)
	}
	if _, _, err := writer.ask(seriesQuery); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reader.ask(seriesQuery); err != nil || shared() != 1 {
		t.Fatalf("a clean read of the fence-filled entry: err=%v, %d hits", err, shared())
	}

	// A servable entry that covers the read.
	if err := writer.enc.EncodeBatch(second); err != nil {
		t.Fatal(err)
	}
	_, got, err := writer.ask(seriesQuery)
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, "an unclean read beside a servable entry", got, serialOf(d, scale, first, second).EstimateSeries())

	// A flight that covers the read and will never land.
	gw.cache.mu.Lock()
	gw.cache.flight = &gatherFlight{done: make(chan struct{}), scope: transport.Scope{}}
	gw.cache.mu.Unlock()
	if err := writer.enc.EncodeBatch(third); err != nil {
		t.Fatal(err)
	}
	writer.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, got, err = writer.ask(seriesQuery); err != nil {
		t.Fatalf("an unclean read beside a flight: %v (did it wait for the flight?)", err)
	}
	sameSeries(t, "an unclean read beside a flight", got, serialOf(d, scale, first, second, third).EstimateSeries())
	if n := shared(); n != 1 {
		t.Fatalf("%d reads were hits or joins, want the clean reader's one", n)
	}
}
