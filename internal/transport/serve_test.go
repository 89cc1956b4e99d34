package transport

import (
	"net"
	"sync"
	"testing"

	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/wire"
)

// connReports builds a deterministic stream of valid wire messages for
// one simulated connection: a few hellos followed by reports.
func connReports(seed uint64, d, n int) []wire.Msg {
	g := rng.New(seed, 41)
	ms := make([]wire.Msg, 0, n+4)
	for u := 0; u < 4; u++ {
		ms = append(ms, wire.Hello(int(seed)*1000+u, g.IntN(7)))
	}
	for i := 0; i < n; i++ {
		h := g.IntN(7)
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		ms = append(ms, wire.FromReport(protocol.Report{
			User: int(seed)*1000 + i, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit,
		}))
	}
	return ms
}

// TestIngestServerEndToEnd drives the full batch-ingest service over
// real TCP: several concurrent connections ship batched reports with
// interleaved online queries, and the final estimates must match a
// serial in-process server bit for bit.
func TestIngestServerEndToEnd(t *testing.T) {
	const (
		d     = 64
		scale = 3.25
		conns = 4
		perC  = 2500
		batch = 64
	)
	srv := NewIngestServer(NewShardedCollector(protocol.NewSharded(d, scale, conns)))
	srv.ErrorLog = func(err error) { t.Error(err) }
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			enc := wire.NewEncoder(conn)
			dec := wire.NewDecoder(conn)
			ms := connReports(uint64(c), d, perC)
			for lo := 0; lo < len(ms); lo += batch {
				hi := min(lo+batch, len(ms))
				if err := enc.EncodeBatch(ms[lo:hi]); err != nil {
					t.Error(err)
					return
				}
				// Interleave an online query to exercise the live path.
				if lo/batch == 3 {
					if err := enc.Encode(pointQ(d / 2)); err != nil {
						t.Error(err)
						return
					}
					if err := enc.Flush(); err != nil {
						t.Error(err)
						return
					}
					resp, err := dec.ReadAnswer()
					if err != nil {
						t.Error(err)
						return
					}
					if resp.Kind != wire.QueryPoint || resp.L != d/2 || len(resp.Values) != 1 {
						t.Errorf("conn %d: bad query response %+v", c, resp)
					}
				}
			}
			// Fence: the server handles frames in order per connection, so
			// a query response proves every batch above has been applied.
			if err := enc.Encode(pointQ(1)); err != nil {
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
		}(c)
	}
	wg.Wait()

	// Serial reference: the same messages through a plain Server.
	serial := protocol.NewServer(d, scale)
	for c := 0; c < conns; c++ {
		for _, m := range connReports(uint64(c), d, perC) {
			switch m.Type {
			case wire.MsgHello:
				serial.Register(m.Order)
			case wire.MsgReport:
				serial.Ingest(m.Report())
			}
		}
	}

	// Query every period over a fresh connection.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	for tt := 1; tt <= d; tt++ {
		if err := enc.Encode(pointQ(tt)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	for tt := 1; tt <= d; tt++ {
		resp, err := dec.ReadAnswer()
		if err != nil {
			t.Fatal(err)
		}
		if want := serial.EstimateAt(tt); len(resp.Values) != 1 || resp.Values[0] != want || resp.L != tt {
			t.Fatalf("estimate at %d: got %+v, want %v", tt, resp, want)
		}
	}
	conn.Close()

	hellos, reports, _ := srv.store.Stats()
	if hellos != conns*4 || reports != conns*perC {
		t.Fatalf("stats: got %d hellos, %d reports", hellos, reports)
	}
	if got, want := srv.store.Users(), conns*4; got != want {
		t.Fatalf("users: got %d, want %d", got, want)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestIngestServerBadInput checks that a malformed connection is closed
// without taking down the server, and valid traffic still flows.
func TestIngestServerBadInput(t *testing.T) {
	srv := NewIngestServer(NewShardedCollector(protocol.NewSharded(16, 1, 2)))
	var mu sync.Mutex
	var errs []error
	srv.ErrorLog = func(err error) { mu.Lock(); errs = append(errs, err); mu.Unlock() }
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()

	// Garbage connection: unknown type byte.
	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Write([]byte{42, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The server should close it on us.
	buf := make([]byte, 1)
	if _, err := bad.Read(buf); err == nil {
		t.Fatal("expected server to close the bad connection")
	}
	bad.Close()

	// A good connection still works.
	good, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	enc := wire.NewEncoder(good)
	dec := wire.NewDecoder(good)
	if err := enc.EncodeBatch([]wire.Msg{wire.Hello(1, 2), wire.FromReport(protocol.Report{Order: 0, J: 5, Bit: 1})}); err != nil {
		t.Fatal(err)
	}
	// C(5) = {I{2,1}, I{0,5}}, so the report at I{0,5} is visible at t=5.
	if err := enc.Encode(pointQ(5)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := dec.ReadAnswer()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != 1 || resp.Values[0] != 1 {
		t.Fatalf("bad response %+v", resp)
	}
	good.Close()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) == 0 {
		t.Fatal("expected the bad connection to be logged")
	}
}
