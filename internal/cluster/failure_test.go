package cluster

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtf/internal/membership"
	"rtf/internal/obs"
	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/internal/wire"
)

// startBlackhole listens and accepts connections but never answers —
// a hung backend. stop closes the listener and every accepted
// connection.
func startBlackhole(t *testing.T) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go io.Copy(io.Discard, c)
		}
	}()
	return l.Addr().String(), func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// startFirstConnBlackholeProxy fronts backendAddr with a proxy whose
// FIRST accepted connection is a black hole (reads and discards
// forever) while every later connection is piped through to the real
// backend — a backend that hangs one connection but serves fresh ones,
// the shape a clean session's retry on a fresh connection recovers.
func startFirstConnBlackholeProxy(t *testing.T, backendAddr string) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	n := 0
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			n++
			first := n == 1
			mu.Unlock()
			if first {
				go io.Copy(io.Discard, c)
				continue
			}
			go func(c net.Conn) {
				d, err := net.Dial("tcp", backendAddr)
				if err != nil {
					c.Close()
					return
				}
				mu.Lock()
				conns = append(conns, d)
				mu.Unlock()
				go io.Copy(d, c)
				io.Copy(c, d)
			}(c)
		}
	}()
	return l.Addr().String(), func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// startValveProxy fronts backendAddr with a proxy that pipes every
// connection through until hang is called: from then on the connections
// open at that moment — and, if fresh is set, every later one — swallow
// what they are sent and answer nothing. A member can therefore take its
// view push and then hang.
func startValveProxy(t *testing.T, backendAddr string) (addr string, hang func(fresh bool), stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	var shut []*atomic.Bool // one per piped connection
	hungFresh := false
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			hung := hungFresh
			mu.Unlock()
			d, err := net.Dial("tcp", backendAddr)
			if hung || err != nil {
				go io.Copy(io.Discard, c)
				continue
			}
			closed := new(atomic.Bool)
			mu.Lock()
			conns, shut = append(conns, d), append(shut, closed)
			mu.Unlock()
			pipe := func(dst, src net.Conn) {
				buf := make([]byte, 32<<10)
				for {
					n, err := src.Read(buf)
					if err != nil {
						return
					}
					if !closed.Load() {
						dst.Write(buf[:n])
					}
				}
			}
			go pipe(d, c)
			go pipe(c, d)
		}
	}()
	return l.Addr().String(), func(fresh bool) {
			mu.Lock()
			defer mu.Unlock()
			hungFresh = fresh
			for _, closed := range shut {
				closed.Store(true)
			}
		}, func() {
			l.Close()
			mu.Lock()
			defer mu.Unlock()
			for _, c := range conns {
				c.Close()
			}
		}
}

// TestGatewayBackendFailureQueryPaths is the table over the ways a
// backend can fail a scatter/gather query. The invariant under test:
// the gateway answers exactly (bit-for-bit against a serial reference)
// or fails the client connection — it never emits an answer merged from
// a subset of backends.
func TestGatewayBackendFailureQueryPaths(t *testing.T) {
	const d, scale = 32, 2.0
	fast := transport.ClusterOptions{
		DialTimeout:  200 * time.Millisecond,
		DialAttempts: 2,
		BackoffBase:  time.Millisecond,
		BackoffMax:   2 * time.Millisecond,
	}
	withTimeout := fast
	withTimeout.FetchTimeout = 100 * time.Millisecond

	cases := []struct {
		name string
		opts transport.ClusterOptions
		// members runs the row over the member placement (the three
		// backends are shard maps, K = 2) instead of the static one.
		members bool
		// failing returns the third backend address (and its stopper),
		// given the already-started real backend it may front; arm, when
		// non-nil, runs once the gateway is built and has announced its
		// view.
		failing func(t *testing.T, real *testBackend) (addr string, arm, stop func())
		// forwardToFailing routes part of the ingest batch to the
		// failing backend before the query (leaving unfenced forwards
		// on it).
		forwardToFailing bool
		wantAnswer       bool
		// retried marks a row whose first connection to the failing
		// backend hangs past FetchTimeout and whose clean session then
		// answers from a fresh one: no owner is skipped, and the new
		// lease carries a second write and read.
		retried bool
		wantErr string
	}{
		{
			name: "backend down at query time",
			opts: fast,
			failing: func(t *testing.T, real *testBackend) (string, func(), func()) {
				// A listener that is already closed: dials are refused.
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addr := l.Addr().String()
				l.Close()
				return addr, nil, func() {}
			},
			wantErr: "unreachable",
		},
		{
			name: "backend hangs mid-scatter past FetchTimeout",
			opts: withTimeout,
			failing: func(t *testing.T, real *testBackend) (string, func(), func()) {
				addr, stop := startBlackhole(t)
				return addr, nil, stop
			},
			wantErr: "fetching sums",
		},
		{
			name: "backend dies holding unfenced forwards",
			opts: fast,
			failing: func(t *testing.T, real *testBackend) (string, func(), func()) {
				// The real backend, stopped after the forwards land.
				return real.addr, nil, func() {}
			},
			forwardToFailing: true,
			wantErr:          "unacknowledged forwards",
		},
		{
			name: "clean retry outlasts a hung connection",
			opts: withTimeout,
			failing: func(t *testing.T, real *testBackend) (string, func(), func()) {
				addr, stop := startFirstConnBlackholeProxy(t, real.addr)
				return addr, nil, stop
			},
			wantAnswer: true,
			retried:    true,
		},
		{
			// Over replicas a member that times out clean is not the end of
			// the read: the session stops asking it and every shard it
			// owns answers from the other owner.
			name:    "member hangs mid-scatter past FetchTimeout",
			opts:    withTimeout,
			members: true,
			failing: func(t *testing.T, real *testBackend) (string, func(), func()) {
				addr, hang, stop := startValveProxy(t, real.addr)
				return addr, func() { hang(true) }, stop
			},
			wantAnswer: true,
			wantErr:    "fetching sums from member n2",
		},
		{
			// The connection that carried the view push hangs; fresh ones
			// are served.
			name:    "clean retry outlasts a hung member connection",
			opts:    withTimeout,
			members: true,
			failing: func(t *testing.T, real *testBackend) (string, func(), func()) {
				addr, hang, stop := startValveProxy(t, real.addr)
				return addr, func() { hang(false) }, stop
			},
			wantAnswer: true,
			retried:    true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mode := transport.BoolMode(d, scale)
			backend := func(id string) *testBackend {
				if tc.members {
					return startStoreBackend(t, transport.NewShardMap(mode, testShards, id))
				}
				return startStoreBackend(t, transport.NewCollector(mode, 2))
			}
			good := []*testBackend{backend("n0"), backend("n1")}
			defer good[0].stop(t)
			defer good[1].stop(t)
			real := backend("n2")
			failAddr, arm, stopFailing := tc.failing(t, real)
			defer stopFailing()

			addrs := []string{good[0].addr, good[1].addr, failAddr}
			place := Static(addrs)
			// toFailing reports whether a user's reports are forwarded to
			// the failing backend.
			toFailing := func(u int) bool { return u%3 == 2 }
			if tc.members {
				place = testPlacements[1].place(addrs)
				toFailing = func(u int) bool { return place.view.Owns("n2", membership.ShardOf(u, testShards)) }
			}
			gw, err := New(mode, place, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.members {
				if err := gw.AnnounceView(); err != nil {
					t.Fatal(err)
				}
			}
			if arm != nil {
				arm()
			}
			gw.Metrics = transport.NewServerMetrics(obs.NewRegistry())
			var errMu sync.Mutex
			var gwErrs []string
			gw.ErrorLog = func(err error) {
				errMu.Lock()
				gwErrs = append(gwErrs, err.Error())
				errMu.Unlock()
			}
			ready := make(chan net.Addr, 1)
			gwDone := make(chan error, 1)
			go func() { gwDone <- gw.ListenAndServe("127.0.0.1:0", ready) }()
			gwAddr := (<-ready).String()
			defer func() {
				if err := gw.Close(); err != nil {
					t.Error(err)
				}
				if err := <-gwDone; err != nil {
					t.Error(err)
				}
				real.srv.Close()
			}()

			conn, err := net.Dial("tcp", gwAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			enc := wire.NewEncoder(conn)
			dec := wire.NewDecoder(conn)

			// send forwards users [from, to) that keep selects, and feeds
			// them to the serial reference too.
			serial := protocol.NewServer(d, scale)
			send := func(from, to int, keep func(u int) bool) {
				var ms []wire.Msg
				for u := from; u < to; u++ {
					if !keep(u) {
						continue
					}
					ms = append(ms, wire.Hello(u, 1),
						wire.FromReport(protocol.Report{User: u, Order: 1, J: 1 + u%(d/2), Bit: 1}))
					serial.Register(1)
					serial.Ingest(ms[len(ms)-1].Report())
				}
				if err := enc.EncodeBatch(ms); err != nil {
					t.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			series := func() ([]float64, error) {
				if err := enc.Encode(wire.QueryV2(wire.QuerySeries, 0, 0)); err != nil {
					t.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					t.Fatal(err)
				}
				a, err := dec.ReadAnswer()
				return a.Values, err
			}
			exact := func(got []float64) {
				t.Helper()
				want := serial.EstimateSeries()
				if len(got) != len(want) {
					t.Fatalf("series of %d values, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("series value %d: gateway %v, serial %v", i, got[i], want[i])
					}
				}
			}

			// Ingest only users routed to the two good backends unless the
			// case wants unfenced forwards on the failing one.
			send(0, 30, func(u int) bool { return tc.forwardToFailing || !toFailing(u) })
			if tc.forwardToFailing {
				// Wait until the gateway's forward has landed on the
				// failing backend (its collector saw the reports), so
				// the session holds a live lease with unfenced
				// forwards. No fence: they stay unacknowledged. Then
				// stop the backend so the leased connection dies.
				deadline := time.Now().Add(2 * time.Second)
				for {
					if _, reports, _ := real.srv.Store().Stats(); reports >= 10 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("forwards never reached the failing backend")
					}
					time.Sleep(time.Millisecond)
				}
				real.srv.Close()
				<-real.done
			}

			start := time.Now()
			got, err := series()
			if tc.wantAnswer {
				if err != nil {
					t.Fatalf("query failed: %v", err)
				}
				exact(got)
				if tc.retried {
					if took := time.Since(start); took < tc.opts.FetchTimeout {
						t.Fatalf("answered in %v, inside FetchTimeout: the hung connection was never read", took)
					}
					if n := gw.ShortReads(); n != 0 {
						t.Fatalf("%d short reads: the retry should have answered for every owner", n)
					}
					// The fresh connection is the session's lease now: it
					// carries forwards to the failing backend and the read
					// that fences them.
					send(30, 60, toFailing)
					got, err := series()
					if err != nil {
						t.Fatalf("second query on the new lease failed: %v", err)
					}
					exact(got)
				} else if gw.ShortReads() == 0 {
					t.Fatal("answered without the failing backend, yet counted no short read")
				}
			} else if err == nil {
				// Failure cases: the client connection must die without any
				// answer bytes — a partially-merged answer is the bug class
				// under test.
				t.Fatalf("got an answer (%d values) from a cluster with a failed backend", len(got))
			}
			errMu.Lock()
			defer errMu.Unlock()
			found := tc.wantErr == ""
			for _, e := range gwErrs {
				if strings.Contains(e, tc.wantErr) {
					found = true
				}
			}
			if !found {
				t.Fatalf("gateway errors %q do not mention %q", gwErrs, tc.wantErr)
			}
		})
	}
}

// TestGatewayAckedBatchShedWhole: the gateway sheds acked batches at
// its front door — before any forward — so a shed batch is rejected
// whole cluster-wide, and an applied one lands exactly.
func TestGatewayAckedBatchShedWhole(t *testing.T) {
	const d, scale = 32, 2.0
	backends := []*testBackend{startBackend(t, d, scale), startBackend(t, d, scale)}
	defer backends[0].stop(t)
	defer backends[1].stop(t)
	gw, err := New(transport.BoolMode(d, scale), Static([]string{backends[0].addr, backends[1].addr}), transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gw.ErrorLog = func(err error) { t.Error(err) }
	gw.Metrics = transport.NewServerMetrics(obs.NewRegistry())
	gw.Queue = transport.NewIngestQueue(1)
	gw.Metrics.RegisterQueue(gw.Queue)
	ready := make(chan net.Addr, 1)
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.ListenAndServe("127.0.0.1:0", ready) }()
	gwAddr := (<-ready).String()
	defer func() {
		if err := gw.Close(); err != nil {
			t.Error(err)
		}
		if err := <-gwDone; err != nil {
			t.Error(err)
		}
	}()

	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	batch := []wire.Msg{
		wire.Hello(0, 1), wire.Hello(1, 1),
		wire.FromReport(protocol.Report{User: 0, Order: 1, J: 5, Bit: 1}),
		wire.FromReport(protocol.Report{User: 1, Order: 1, J: 7, Bit: 1}),
	}

	// Queue full: the batch must be shed before any forward.
	gw.Queue.Acquire()
	if err := enc.EncodeAckedBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if applied, err := dec.ReadBatchAck(); err != nil || applied {
		t.Fatalf("want shed, got applied=%v err=%v", applied, err)
	}
	for i, b := range backends {
		if hellos, reports, _ := b.srv.Store().Stats(); hellos != 0 || reports != 0 {
			t.Fatalf("backend %d saw %d hellos, %d reports from a shed batch", i, hellos, reports)
		}
	}

	// Queue free: the same batch applies, and a query certifies it.
	gw.Queue.Release()
	if err := enc.EncodeAckedBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if applied, err := dec.ReadBatchAck(); err != nil || !applied {
		t.Fatalf("want applied, got applied=%v err=%v", applied, err)
	}
	serial := protocol.NewServer(d, scale)
	for _, m := range batch {
		if m.Type == wire.MsgHello {
			serial.Register(int(m.Order))
		} else {
			serial.Ingest(m.Report())
		}
	}
	if err := enc.Encode(wire.QueryV2(wire.QueryPoint, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := dec.ReadAnswer()
	if err != nil {
		t.Fatal(err)
	}
	if want := serial.EstimateAt(5); a.Values[0] != want {
		t.Fatalf("estimate = %v, want %v", a.Values[0], want)
	}

	s := gw.Metrics.Registry().Snapshot()
	if s.Counters["ingest_shed_batches_total"] != 1 || s.Counters["ingest_acked_batches_total"] != 2 {
		t.Fatalf("shed/acked = %d/%d, want 1/2",
			s.Counters["ingest_shed_batches_total"], s.Counters["ingest_acked_batches_total"])
	}
	if got := s.Counters[`queries_total{mechanism="boolean",kind="point"}`]; got != 1 {
		t.Fatalf("query counter = %d, want 1", got)
	}
	for i := range backends {
		h, ok := s.Histograms[`scatter_latency_seconds{backend="`+string(rune('0'+i))+`"}`]
		if !ok || h.Count < 1 {
			t.Fatalf("missing scatter latency histogram for backend %d (have %v)", i, s.Histograms)
		}
	}
	// The one gather behind that query, split by layer, and the wire
	// size of exactly the frames it fetched: the point query's columns.
	for _, name := range []string{"gather_fetch_seconds", "gather_fold_seconds"} {
		if h := s.Histograms[name]; h.Count != 1 {
			t.Fatalf("%s observed %d gathers, want 1", name, h.Count)
		}
	}
	var frames bytes.Buffer
	enc = wire.NewEncoder(&frames)
	scoped := wire.Sums()
	scoped.L, scoped.R = 1, 5
	for _, b := range backends {
		if _, _, err := transport.NewShardedCollector(b.acc).Answer(scoped, enc, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Counters[`gathers_total{scope="range"}`]; got != 1 {
		t.Fatalf(`gathers_total{scope="range"} = %d, want 1`, got)
	}
	if got := s.Counters["sums_frame_bytes_total"]; got != int64(frames.Len()) {
		t.Fatalf("sums_frame_bytes_total = %d, the fetched frames are %d bytes", got, frames.Len())
	}
}
