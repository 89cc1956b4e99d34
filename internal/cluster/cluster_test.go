package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/transport"
	"rtf/internal/wire"
)

// testBackend is one in-process rtf-serve: an IngestServer over a
// sharded accumulator, listening on a loopback port.
type testBackend struct {
	srv  *transport.IngestServer
	acc  *protocol.Sharded
	addr string
	done chan error
}

func startBackend(t *testing.T, d int, scale float64) *testBackend {
	t.Helper()
	acc := protocol.NewSharded(d, scale, 2)
	b := startStoreBackend(t, transport.NewShardedCollector(acc))
	b.acc = acc
	return b
}

// startStoreBackend serves any store; acc stays nil.
func startStoreBackend(t *testing.T, store transport.Store) *testBackend {
	t.Helper()
	srv := transport.NewIngestServer(store)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	return &testBackend{srv: srv, addr: (<-ready).String(), done: done}
}

func (b *testBackend) stop(t *testing.T) {
	t.Helper()
	if err := b.srv.Close(); err != nil {
		t.Error(err)
	}
	if err := <-b.done; err != nil {
		t.Error(err)
	}
}

// startGateway fronts the backends with an in-process gateway.
func startGateway(t *testing.T, d int, scale float64, addrs []string, opts transport.ClusterOptions) (*Gateway, string, chan error) {
	t.Helper()
	gw, err := New(transport.BoolMode(d, scale), Static(addrs), opts)
	if err != nil {
		t.Fatal(err)
	}
	gw.ErrorLog = func(err error) { t.Log("gateway:", err) }
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- gw.ListenAndServe("127.0.0.1:0", ready) }()
	return gw, (<-ready).String(), done
}

// clusterMsgs builds a deterministic mixed stream of hellos and reports
// spanning users [0, users).
func clusterMsgs(seed uint64, d, users, perUser int) []wire.Msg {
	g := rng.New(seed, 77)
	orders := dyadic.NumOrders(d)
	ms := make([]wire.Msg, 0, users*(perUser+1))
	for u := 0; u < users; u++ {
		ms = append(ms, wire.Hello(u, g.IntN(orders)))
		for i := 0; i < perUser; i++ {
			h := g.IntN(orders)
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			ms = append(ms, wire.FromReport(protocol.Report{
				User: u, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit,
			}))
		}
	}
	return ms
}

// TestGatewayScatterGather drives mixed ingestion and all four query
// shapes through a gateway over three backends and checks every answer
// bit-for-bit against a serial server fed the same messages, plus that
// users really were partitioned user mod N.
func TestGatewayScatterGather(t *testing.T) {
	const (
		d     = 64
		scale = 3.25
		users = 300
	)
	var backends []*testBackend
	var addrs []string
	for i := 0; i < 3; i++ {
		b := startBackend(t, d, scale)
		backends = append(backends, b)
		addrs = append(addrs, b.addr)
		defer b.stop(t)
	}
	gw, gwAddr, gwDone := startGateway(t, d, scale, addrs, transport.ClusterOptions{})

	ms := clusterMsgs(1, d, users, 20)
	serial := protocol.NewServer(d, scale)
	for _, m := range ms {
		if m.Type == wire.MsgHello {
			serial.Register(int(m.Order))
		} else {
			serial.Ingest(m.Report())
		}
	}

	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	const batch = 97
	for lo := 0; lo < len(ms); lo += batch {
		hi := min(lo+batch, len(ms))
		if err := enc.EncodeBatch(ms[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	// Point queries for every period, pipelined.
	for tt := 1; tt <= d; tt++ {
		if err := enc.Encode(wire.QueryV2(wire.QueryPoint, tt, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	for tt := 1; tt <= d; tt++ {
		a, err := dec.ReadAnswer()
		if err != nil {
			t.Fatal(err)
		}
		if a.Kind != wire.QueryPoint || a.L != tt || len(a.Values) != 1 {
			t.Fatalf("bad point answer %+v at t=%d", a, tt)
		}
		if want := serial.EstimateAt(tt); a.Values[0] != want {
			t.Fatalf("point estimate at %d: gateway %v, serial %v", tt, a.Values[0], want)
		}
	}
	// The four v2 shapes.
	checks := []struct {
		q    wire.Msg
		want []float64
	}{
		{wire.QueryV2(wire.QueryPoint, 17, 17), []float64{serial.EstimateAt(17)}},
		{wire.QueryV2(wire.QueryChange, 5, 40), []float64{serial.EstimateChange(5, 40)}},
		{wire.QueryV2(wire.QuerySeries, 0, 0), serial.EstimateSeries()},
		{wire.QueryV2(wire.QueryWindow, 9, 24), serial.EstimateSeries()[8:24]},
	}
	for _, c := range checks {
		if err := enc.Encode(c.q); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		a, err := dec.ReadAnswer()
		if err != nil {
			t.Fatalf("%s: %v", c.q.Kind, err)
		}
		if len(a.Values) != len(c.want) {
			t.Fatalf("%s: %d values, want %d", c.q.Kind, len(a.Values), len(c.want))
		}
		for i := range c.want {
			if a.Values[i] != c.want[i] {
				t.Fatalf("%s value %d: gateway %v, serial %v", c.q.Kind, i, a.Values[i], c.want[i])
			}
		}
	}

	// Partitioning: backend i holds exactly the users with id ≡ i mod 3.
	for i, b := range backends {
		want := 0
		for u := 0; u < users; u++ {
			if u%3 == i {
				want++
			}
		}
		if got := b.acc.Users(); got != want {
			t.Errorf("backend %d: %d users, want %d", i, got, want)
		}
	}

	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-gwDone; err != nil {
		t.Fatal(err)
	}
}

// TestGatewayBackendRestart kills one backend's listener mid-session
// and restarts a fresh server on the same address and accumulator: the
// gateway's pooled connections are dead, so the next query exercises
// the drop/re-dial/retry path and must still answer exactly.
func TestGatewayBackendRestart(t *testing.T) {
	const d, scale = 32, 1.5
	var addrs []string
	var backends []*testBackend
	for i := 0; i < 3; i++ {
		b := startBackend(t, d, scale)
		backends = append(backends, b)
		addrs = append(addrs, b.addr)
		defer func(b *testBackend) { b.srv.Close() }(b)
	}
	gw, gwAddr, gwDone := startGateway(t, d, scale, addrs, transport.ClusterOptions{
		DialAttempts: 20,
		BackoffBase:  10 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
	})

	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	ms := clusterMsgs(3, d, 60, 5)
	if err := enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(wire.QueryV2(wire.QueryPoint, 1, 0)); err != nil { // fence
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadAnswer(); err != nil {
		t.Fatal(err)
	}

	// Kill backend 1 and restart it on the same address with the same
	// accumulator (standing in for a durable recovery).
	backends[1].srv.Close()
	<-backends[1].done
	var restarted *transport.IngestServer
	var rdone chan error
	deadline := time.Now().Add(5 * time.Second)
	for {
		restarted = transport.NewIngestServer(transport.NewShardedCollector(backends[1].acc))
		ready := make(chan net.Addr, 1)
		rdone = make(chan error, 1)
		go func() { rdone <- restarted.ListenAndServe(addrs[1], ready) }()
		select {
		case <-ready:
		case err := <-rdone:
			if time.Now().After(deadline) {
				t.Fatalf("rebinding %s: %v", addrs[1], err)
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		break
	}
	defer func() {
		restarted.Close()
		<-rdone
	}()

	serial := protocol.NewServer(d, scale)
	for _, m := range ms {
		if m.Type == wire.MsgHello {
			serial.Register(int(m.Order))
		} else {
			serial.Ingest(m.Report())
		}
	}
	if err := enc.Encode(wire.QueryV2(wire.QuerySeries, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := dec.ReadAnswer()
	if err != nil {
		t.Fatal(err)
	}
	want := serial.EstimateSeries()
	for i := range want {
		if a.Values[i] != want[i] {
			t.Fatalf("series value %d after restart: gateway %v, serial %v", i, a.Values[i], want[i])
		}
	}
	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-gwDone; err != nil {
		t.Fatal(err)
	}
}

// TestGatewayStacked checks that a gateway answers MsgSums itself, so
// gateways stack: a two-level tree must answer exactly like one flat
// serial server.
func TestGatewayStacked(t *testing.T) {
	const d, scale = 16, 2.5
	var addrs []string
	for i := 0; i < 2; i++ {
		b := startBackend(t, d, scale)
		addrs = append(addrs, b.addr)
		defer b.stop(t)
	}
	inner, innerAddr, innerDone := startGateway(t, d, scale, addrs, transport.ClusterOptions{})
	outer, outerAddr, outerDone := startGateway(t, d, scale, []string{innerAddr}, transport.ClusterOptions{})

	ms := clusterMsgs(9, d, 40, 4)
	serial := protocol.NewServer(d, scale)
	for _, m := range ms {
		if m.Type == wire.MsgHello {
			serial.Register(int(m.Order))
		} else {
			serial.Ingest(m.Report())
		}
	}
	conn, err := net.Dial("tcp", outerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	if err := enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(wire.QueryV2(wire.QuerySeries, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := dec.ReadAnswer()
	if err != nil {
		t.Fatal(err)
	}
	want := serial.EstimateSeries()
	for i := range want {
		if a.Values[i] != want[i] {
			t.Fatalf("stacked series value %d: got %v, want %v", i, a.Values[i], want[i])
		}
	}
	conn.Close()
	if err := outer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-outerDone; err != nil {
		t.Fatal(err)
	}
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-innerDone; err != nil {
		t.Fatal(err)
	}
}

// TestGatewayConcurrentSessions runs several client sessions at once —
// interleaved ingestion from all of them — and checks the final fold is
// exact (integer addition is commutative across sessions and backends).
func TestGatewayConcurrentSessions(t *testing.T) {
	const d, scale, sessions = 32, 1.25, 4
	var addrs []string
	for i := 0; i < 3; i++ {
		b := startBackend(t, d, scale)
		addrs = append(addrs, b.addr)
		defer b.stop(t)
	}
	gw, gwAddr, gwDone := startGateway(t, d, scale, addrs, transport.ClusterOptions{})

	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", gwAddr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			enc := wire.NewEncoder(conn)
			dec := wire.NewDecoder(conn)
			ms := clusterMsgs(uint64(100+s), d, 50, 8)
			if err := enc.EncodeBatch(ms); err != nil {
				t.Error(err)
				return
			}
			if err := enc.Encode(wire.QueryV2(wire.QueryPoint, 1, 0)); err != nil { // fence
				t.Error(err)
				return
			}
			if err := enc.Flush(); err != nil {
				t.Error(err)
				return
			}
			if _, err := dec.ReadAnswer(); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()

	serial := protocol.NewServer(d, scale)
	for s := 0; s < sessions; s++ {
		for _, m := range clusterMsgs(uint64(100+s), d, 50, 8) {
			if m.Type == wire.MsgHello {
				serial.Register(int(m.Order))
			} else {
				serial.Ingest(m.Report())
			}
		}
	}
	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	if err := enc.Encode(wire.QueryV2(wire.QuerySeries, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := dec.ReadAnswer()
	if err != nil {
		t.Fatal(err)
	}
	want := serial.EstimateSeries()
	for i := range want {
		if a.Values[i] != want[i] {
			t.Fatalf("series value %d: gateway %v, serial %v", i, a.Values[i], want[i])
		}
	}
	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-gwDone; err != nil {
		t.Fatal(err)
	}
}

// startDomainBackend is startBackend for a domain-mode server.
func startDomainBackend(t *testing.T, d, m int, scale float64) (*transport.IngestServer, *hh.DomainServer, string, chan error) {
	t.Helper()
	ds := hh.NewDomainServer(d, m, scale, 2)
	srv := transport.NewIngestServer(transport.NewDomainCollector(ds))
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	return srv, ds, (<-ready).String(), done
}

// domainMsgs builds a deterministic item-tagged ingest stream.
func domainMsgs(seed uint64, d, m, users, perUser int) []wire.Msg {
	g := rng.New(seed, 99)
	orders := dyadic.NumOrders(d)
	ms := make([]wire.Msg, 0, users*(perUser+1))
	for u := 0; u < users; u++ {
		item := g.IntN(m)
		ms = append(ms, wire.DomainHello(u, item, g.IntN(orders)))
		for i := 0; i < perUser; i++ {
			h := g.IntN(orders)
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			ms = append(ms, wire.FromDomainReport(item, protocol.Report{
				User: u, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit,
			}))
		}
	}
	return ms
}

// TestGatewayDomainScatterGather drives item-tagged ingestion and every
// item-scoped query shape through a domain gateway over three domain
// backends and checks every answer bit-for-bit against one serial
// domain server fed the same messages — including through a second,
// stacked gateway answering MsgDomainSums.
func TestGatewayDomainScatterGather(t *testing.T) {
	const (
		d     = 32
		m     = 5
		scale = 2.5
		users = 240
	)
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, _, addr, done := startDomainBackend(t, d, m, scale)
		addrs = append(addrs, addr)
		defer func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Error(err)
			}
		}()
	}
	gw, err := New(transport.DomainMode(d, hh.ExactEncoding(m), scale), Static(addrs), transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
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

	ms := domainMsgs(5, d, m, users, 12)
	serial := hh.NewDomainServer(d, m, scale, 1)
	for _, msg := range ms {
		if msg.Type == wire.MsgDomainHello {
			serial.Register(0, int(msg.Item), int(msg.Order))
		} else {
			serial.Ingest(0, int(msg.Item), protocol.Report{User: msg.User, Order: int(msg.Order), J: msg.J, Bit: msg.Bit})
		}
	}

	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	for lo := 0; lo < len(ms); lo += 100 {
		hi := lo + 100
		if hi > len(ms) {
			hi = len(ms)
		}
		if err := enc.EncodeBatch(ms[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every item-scoped shape, bit-for-bit vs the serial server.
	ask := func(q wire.Msg) wire.DomainAnswerFrame {
		t.Helper()
		if err := enc.Encode(q); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		a, err := dec.ReadDomainAnswer()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for x := 0; x < m; x++ {
		a := ask(wire.DomainQuery(wire.QueryPointItem, x, d, 0, 0))
		if want := serial.EstimateItemAt(x, d); a.Values[0] != want {
			t.Fatalf("point-item %d: gateway %v, serial %v", x, a.Values[0], want)
		}
		a = ask(wire.DomainQuery(wire.QuerySeriesItem, x, 0, 0, 0))
		want := serial.EstimateItemSeries(x)
		for i := range want {
			if a.Values[i] != want[i] {
				t.Fatalf("series-item %d t=%d: gateway %v, serial %v", x, i+1, a.Values[i], want[i])
			}
		}
	}
	a := ask(wire.DomainQuery(wire.QueryTopK, 0, d/2, 0, m))
	top := serial.TopK(d/2, m)
	for i, ic := range top {
		if a.Items[i] != ic.Item || a.Values[i] != ic.Count {
			t.Fatalf("top-k: gateway %v/%v, serial %v", a.Items, a.Values, top)
		}
	}

	// Stacked gateways: a second domain gateway over the first answers
	// identically (the first answers MsgDomainSums).
	gw2, err := New(transport.DomainMode(d, hh.ExactEncoding(m), scale), Static([]string{gwAddr}), transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ready2 := make(chan net.Addr, 1)
	gw2Done := make(chan error, 1)
	go func() { gw2Done <- gw2.ListenAndServe("127.0.0.1:0", ready2) }()
	gw2Addr := (<-ready2).String()
	defer func() {
		gw2.Close()
		if err := <-gw2Done; err != nil {
			t.Error(err)
		}
	}()
	conn2, err := net.Dial("tcp", gw2Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	enc2 := wire.NewEncoder(conn2)
	dec2 := wire.NewDecoder(conn2)
	if err := enc2.Encode(wire.DomainQuery(wire.QueryTopK, 0, d, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := enc2.Flush(); err != nil {
		t.Fatal(err)
	}
	a2, err := dec2.ReadDomainAnswer()
	if err != nil {
		t.Fatal(err)
	}
	top2 := serial.TopK(d, 3)
	for i, ic := range top2 {
		if a2.Items[i] != ic.Item || a2.Values[i] != ic.Count {
			t.Fatalf("stacked top-k: %v/%v, serial %v", a2.Items, a2.Values, top2)
		}
	}

	// Batch atomicity at the domain gateway: a poisoned batch applies
	// nothing anywhere.
	before := serialUsersAcross(t, addrs, d, m, scale)
	conn3, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	enc3 := wire.NewEncoder(conn3)
	poison := []wire.Msg{
		wire.DomainHello(100000, 0, 0),
		{Type: wire.MsgDomainReport, User: 100001, Item: m + 4, J: 1, Bit: 1},
	}
	if err := enc3.EncodeBatch(poison); err != nil {
		t.Fatal(err)
	}
	if err := enc3.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.NewDecoder(conn3).Next(); err == nil {
		t.Fatal("poisoned batch did not fail the connection")
	}
	after := serialUsersAcross(t, addrs, d, m, scale)
	if before != after {
		t.Fatalf("poisoned batch changed cluster user count %d -> %d", before, after)
	}

	// Boolean frames on a domain gateway fail the connection.
	conn4, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn4.Close()
	enc4 := wire.NewEncoder(conn4)
	if err := enc4.Encode(wire.Hello(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc4.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.NewDecoder(conn4).Next(); err == nil {
		t.Fatal("boolean hello on a domain gateway answered")
	}
}

// serialUsersAcross fetches every backend's domain sums directly and
// returns the total registered users.
func serialUsersAcross(t *testing.T, addrs []string, d, m int, scale float64) int {
	t.Helper()
	total := 0
	for _, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		enc := wire.NewEncoder(conn)
		if err := enc.Encode(wire.DomainSums()); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := wire.NewDecoder(conn).ReadDomainSums()
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < f.M; x++ {
			users, _, _ := f.Row(x)
			total += int(users)
		}
		conn.Close()
	}
	return total
}
