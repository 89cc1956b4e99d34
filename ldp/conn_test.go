package ldp_test

import (
	"bytes"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"rtf/internal/hh"
	"rtf/internal/transport"
	"rtf/ldp"
)

// serveLoopback runs an IngestServer over a fresh two-shard store of
// mode on a loopback port, with an admission queue of queue slots when
// queue > 0, and stops it when the test ends.
func serveLoopback(t *testing.T, mode transport.Mode, queue int) (string, *transport.IngestServer) {
	t.Helper()
	srv := transport.NewIngestServer(transport.NewCollector(mode, 2))
	if queue > 0 {
		srv.Queue = transport.NewIngestQueue(queue)
	}
	ready, served := make(chan net.Addr, 1), make(chan error, 1)
	go func() { served <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-served:
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Error(err)
		}
		if err := <-served; err != nil {
			t.Error(err)
		}
	})
	return addr.String(), srv
}

// dial connects to addr and closes the connection when the test ends.
func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// dyadicScale is the estimator scale a served deployment of FutureRand
// at (d, k, ε = 1) runs with.
func dyadicScale(t *testing.T, d, k int) float64 {
	t.Helper()
	mech, _ := ldp.Lookup(ldp.FutureRand)
	scale, err := mech.EstimatorScale(ldp.Params{D: d, K: k, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	return scale
}

// sameAnswer fails the test unless got is want bit for bit.
func sameAnswer(t *testing.T, got, want ldp.Answer) {
	t.Helper()
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	if got.Query != want.Query || math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
		!slices.Equal(bits(got.Series), bits(want.Series)) || !slices.Equal(got.Items, want.Items) {
		t.Fatalf("%s query %+v: served %+v, in-process %+v", want.Query.Kind, want.Query, got, want)
	}
}

// boolUser queues user u's hello and reports on c, and returns them for
// whoever folds them into a reference.
func boolUser(t *testing.T, c *ldp.Conn, u, d int, opts ...ldp.Option) (int, []ldp.Report) {
	t.Helper()
	cl, err := ldp.NewClient(u, d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello(u, cl.Order()); err != nil {
		t.Fatal(err)
	}
	var reps []ldp.Report
	for tt := 1; tt <= d; tt++ {
		if r, ok := cl.Observe((tt > d/3) != (u%3 == 0)); ok {
			if err := c.Report(r); err != nil {
				t.Fatal(err)
			}
			reps = append(reps, r)
		}
	}
	return cl.Order(), reps
}

// TestBatchRoundTripMatchesDirect checks a Conn's batching over a
// stream that sends no acks: it ships what is queued on each Send, keeps
// a partial batch queued until the next, and counts every byte it
// writes. TestConnBooleanRoundTrip checks what a server makes of them.
func TestBatchRoundTripMatchesDirect(t *testing.T) {
	const d, k, users = 32, 2, 200
	var buf bytes.Buffer
	c, err := ldp.NewConn(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users; u++ {
		boolUser(t, c, u, d, ldp.WithSparsity(k))
		// A buffer sends no acks: five batches stay inside the unacked
		// bound.
		if u%64 == 0 {
			if err := c.Send(); err != nil {
				t.Fatal(err)
			}
			if c.Queued() != 0 || c.BytesWritten() != int64(buf.Len()) {
				t.Fatalf("after Send: %d queued, %d bytes counted, %d written", c.Queued(), c.BytesWritten(), buf.Len())
			}
		}
	}
	if c.Queued() == 0 {
		t.Fatal("expected a partial batch to be queued")
	}
	if err := c.Send(); err != nil {
		t.Fatal(err)
	}
	if c.Queued() != 0 || c.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("after Send: %d queued, %d bytes counted, %d written", c.Queued(), c.BytesWritten(), buf.Len())
	}
}

// TestBatchReporterValidation checks the constructor and report checks
// of the batching client that replaced BatchReporter: a Conn refuses a
// horizon that is not a power of two or does not fit, a domain past the
// exact cap, and a report whose bit is not ±1.
func TestBatchReporterValidation(t *testing.T) {
	for _, bad := range []int{0, 12, -4, 1 << 31} {
		if _, err := ldp.NewConn(&bytes.Buffer{}, bad); err == nil {
			t.Errorf("NewConn(d=%d): accepted", bad)
		}
	}
	if _, err := ldp.NewDomainConn(&bytes.Buffer{}, 16, ldp.MaxDomainSize+1); err == nil {
		t.Error("NewDomainConn past the exact cap: accepted")
	}
	c, err := ldp.NewConn(&bytes.Buffer{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Report(ldp.Report{Bit: 0, J: 1}); err == nil {
		t.Error("bad bit: expected error")
	}
}

// TestBatchReporterRefusesOversizedOrder checks that a report whose order
// does not fit the wire message's 16-bit field is refused at the call,
// instead of wrapping into a small valid order (2^16 + 1 wraps to 1), and
// that the refused report never reaches the stream.
func TestBatchReporterRefusesOversizedOrder(t *testing.T) {
	var buf bytes.Buffer
	c, err := ldp.NewConn(&buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Report(ldp.Report{User: 3, Order: 1<<16 + 1, J: 1, Bit: 1}); err == nil || !strings.Contains(err.Error(), "order") {
		t.Fatalf("Report of an order beyond 16 bits: %v, want an order refusal", err)
	}
	if c.Queued() != 0 {
		t.Fatalf("the refused report was queued: %d messages", c.Queued())
	}
	if err := c.Send(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused report wrote %d bytes", buf.Len())
	}
}

// TestConnRefusesBadInput checks that every call is held to the
// deployment's ingest contract: a refused input returns its error and
// never enters a batch, and the valid messages around it still ship and
// ingest.
func TestConnRefusesBadInput(t *testing.T) {
	const d = 16
	addr, _ := serveLoopback(t, transport.BoolMode(d, dyadicScale(t, d, 2)), 0)
	c, err := ldp.NewConn(dial(t, addr), d)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ldp.NewServer(d, ldp.WithSparsity(2))
	if err != nil {
		t.Fatal(err)
	}
	valid := func(u int) {
		t.Helper()
		order, reps := boolUser(t, c, u, d, ldp.WithSparsity(2))
		if err := ref.Register(order); err != nil {
			t.Fatal(err)
		}
		for _, r := range reps {
			if err := ref.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	valid(0)
	for _, tc := range []struct {
		what string
		call func() error
		want string
	}{
		{"negative user hello", func() error { return c.Hello(-1, 0) }, "negative user"},
		{"order past log2 d", func() error { return c.Hello(1, 99) }, "order 99"},
		{"negative user report", func() error { return c.Report(ldp.Report{User: -5, J: 1, Bit: 1}) }, "negative user"},
		{"zero bit", func() error { return c.Report(ldp.Report{User: 1, J: 1}) }, "bit 0"},
		{"order beyond 16 bits", func() error { return c.Report(ldp.Report{User: 3, Order: 1<<16 + 1, J: 1, Bit: 1}) }, "order"},
		{"index past the horizon", func() error { return c.Report(ldp.Report{User: 3, Order: 2, J: 5, Bit: 1}) }, "index 5"},
		{"domain hello on a Boolean Conn", func() error { return c.DomainHello(1, 0, 0) }, "message type"},
	} {
		before := c.Queued()
		if err := tc.call(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", tc.what, err, tc.want)
		}
		if c.Queued() != before {
			t.Errorf("%s: the refused message was queued", tc.what)
		}
		valid(c.Queued())
	}
	if acks, err := c.Fence(); err != nil || len(acks) != 1 || !acks[0] {
		t.Fatalf("the valid messages around the refusals: verdicts %v, %v", acks, err)
	}
	got, err := c.Answer(ldp.SeriesQuery())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Answer(ldp.SeriesQuery())
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, got, want)
}

// TestConnBooleanRoundTrip checks every Boolean query kind through a
// loopback rtf-serve core against the in-process server fed the same
// reports, bit for bit.
func TestConnBooleanRoundTrip(t *testing.T) {
	const d, k, users = 64, 2, 400
	addr, _ := serveLoopback(t, transport.BoolMode(d, dyadicScale(t, d, k)), 0)
	c, err := ldp.NewConn(dial(t, addr), d)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ldp.NewServer(d, ldp.WithSparsity(k))
	if err != nil {
		t.Fatal(err)
	}
	sent := 1 // the fence ships the last, partial batch
	for u := 0; u < users; u++ {
		order, reps := boolUser(t, c, u, d, ldp.WithSparsity(k))
		if err := ref.Register(order); err != nil {
			t.Fatal(err)
		}
		for _, r := range reps {
			if err := ref.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
		// Never reading an ack before the fence: past MaxUnacked batches
		// Send reads them itself.
		if c.Queued() >= 128 {
			if err := c.Send(); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	acks, err := c.Fence()
	if err != nil {
		t.Fatal(err)
	}
	if sent <= ldp.MaxUnacked || len(acks) != sent || slices.Contains(acks, false) {
		t.Fatalf("%d batches sent (want more than %d), fence verdicts %v: want one true verdict each", sent, ldp.MaxUnacked, acks)
	}
	qs := []ldp.Query{ldp.ChangeQuery(1, d), ldp.ChangeQuery(5, 9), ldp.SeriesQuery(), ldp.WindowQuery(1, d), ldp.WindowQuery(3, 17)}
	for tt := 1; tt <= d; tt++ {
		qs = append(qs, ldp.PointQuery(tt))
	}
	for _, q := range qs {
		got, err := c.Answer(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		want, err := ref.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want)
	}
	for _, q := range []ldp.Query{ldp.PointQuery(d + 1), ldp.WindowQuery(3, 2), ldp.TopKQuery(1, 3)} {
		if _, err := c.Answer(q); err == nil {
			t.Errorf("%+v: answered, want a refusal before it is sent", q)
		}
	}
	if _, err := c.Answer(ldp.PointQuery(d)); err != nil {
		t.Fatalf("a refused query broke the connection: %v", err)
	}
}

// TestConnDomainRoundTrip checks PointItem, SeriesItem and TopK through
// a loopback domain core under the exact and the loloha encoding
// against the in-process DomainServer, bit for bit.
func TestConnDomainRoundTrip(t *testing.T) {
	const d, k, users = 32, 2, 600
	for _, tc := range []struct {
		name string
		m    int
		opts []ldp.Option
	}{
		{"exact", 8, nil},
		{"loloha", 5000, []ldp.Option{ldp.WithDomainEncoding(hh.EncodingLoloha), ldp.WithBuckets(16), ldp.WithHashSeed(99)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]ldp.Option{ldp.WithSparsity(k)}, tc.opts...)
			w, err := ldp.GenerateDomain(users, d, tc.m, k, 1.1, 5)
			if err != nil {
				t.Fatal(err)
			}
			factory, err := ldp.NewDomainClientFactory(d, tc.m, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ldp.NewDomainServer(d, tc.m, opts...)
			if err != nil {
				t.Fatal(err)
			}
			addr, _ := serveLoopback(t, transport.DomainMode(d, ref.Encoding(), dyadicScale(t, d, k)), 0)
			c, err := ldp.NewDomainConn(dial(t, addr), d, tc.m, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < users; u++ {
				cl, err := factory.NewClient(u, int64(u))
				if err != nil {
					t.Fatal(err)
				}
				if err := c.DomainHello(u, cl.Item(), cl.Order()); err != nil {
					t.Fatal(err)
				}
				if err := ref.Register(cl.Item(), cl.Order()); err != nil {
					t.Fatal(err)
				}
				for _, v := range w.Users[u].Values(d) {
					r, ok, err := cl.Observe(v)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						continue
					}
					if err := c.DomainReport(r); err != nil {
						t.Fatal(err)
					}
					if err := ref.Ingest(r); err != nil {
						t.Fatal(err)
					}
				}
				if c.Queued() >= 256 {
					if err := c.Send(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if acks, err := c.Fence(); err != nil || slices.Contains(acks, false) {
				t.Fatalf("fence: %v %v", acks, err)
			}
			qs := []ldp.Query{ldp.TopKQuery(d, 5), ldp.TopKQuery(1, 3), ldp.TopKQuery(d/2, 0)}
			for _, x := range []int{0, 1, 2, 7, tc.m - 1} {
				qs = append(qs, ldp.PointItemQuery(x, 1), ldp.PointItemQuery(x, d), ldp.SeriesItemQuery(x))
			}
			for _, q := range qs {
				got, err := c.Answer(q)
				if err != nil {
					t.Fatalf("%+v: %v", q, err)
				}
				want, err := ref.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswer(t, got, want)
			}
			if _, err := c.Answer(ldp.PointItemQuery(tc.m, 1)); err == nil {
				t.Error("an item past the catalogue: answered")
			}
			if err := c.DomainHello(1, ref.Encoding().Rows(), 0); err == nil {
				t.Error("a row past the encoding's: queued")
			}
		})
	}
}

// TestConnShedBatch runs a loopback server whose admission queue has one
// slot and pipelines batches while the test holds that slot for part of
// the stream: the client must report each batch the server shed, and
// every answer must equal, bit for bit, an in-process server fed only
// the batches it reports applied.
func TestConnShedBatch(t *testing.T) {
	const d, k, perBatch, batches = 32, 2, 20, 9
	addr, srv := serveLoopback(t, transport.BoolMode(d, dyadicScale(t, d, k)), 1)
	c, err := ldp.NewConn(dial(t, addr), d)
	if err != nil {
		t.Fatal(err)
	}
	type user struct {
		order int
		reps  []ldp.Report
	}
	var sent [][]user
	var verdicts []bool
	send := func() {
		t.Helper()
		var b []user
		for range perBatch {
			order, reps := boolUser(t, c, len(sent)*perBatch+len(b), d, ldp.WithSparsity(k))
			b = append(b, user{order, reps})
		}
		if err := c.Send(); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, b)
	}
	settle := func(n int) {
		t.Helper()
		acks, err := c.Acks(n)
		if err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, acks...)
	}
	for range batches / 3 {
		send()
	}
	srv.Queue.Acquire() // the server's one slot is the test's now
	for range batches / 3 {
		send()
	}
	settle(0) // every batch sent while the slot is held is shed
	srv.Queue.Release()
	for range batches / 3 {
		send()
	}
	acks, err := c.Fence()
	if err != nil {
		t.Fatal(err)
	}
	verdicts = append(verdicts, acks...)
	if len(verdicts) != batches {
		t.Fatalf("%d verdicts for %d batches", len(verdicts), batches)
	}
	for i := batches / 3; i < 2*batches/3; i++ {
		if verdicts[i] {
			t.Fatalf("batch %d, sent while the queue was full, reported applied (verdicts %v)", i, verdicts)
		}
	}
	if slices.Contains(verdicts[2*batches/3:], false) {
		t.Fatalf("a batch sent after the slot freed was shed (verdicts %v)", verdicts)
	}

	ref, err := ldp.NewServer(d, ldp.WithSparsity(k))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range sent {
		for _, u := range b {
			if !verdicts[i] {
				continue
			}
			if err := ref.Register(u.order); err != nil {
				t.Fatal(err)
			}
			for _, r := range u.reps {
				if err := ref.Ingest(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, q := range []ldp.Query{ldp.SeriesQuery(), ldp.ChangeQuery(2, d), ldp.PointQuery(d)} {
		got, err := c.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want)
	}
}

// TestConnFailsAfterBrokenStream checks that an I/O failure sticks: a
// Conn whose peer hung up returns the failure from every later call
// instead of writing into a dead stream.
func TestConnFailsAfterBrokenStream(t *testing.T) {
	var out bytes.Buffer
	c, err := ldp.NewConn(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(""), &out}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fence(); err == nil {
		t.Fatal("fence over a stream that never answers: succeeded")
	}
	for what, err := range map[string]error{
		"Hello":  c.Hello(1, 0),
		"Send":   c.Send(),
		"Answer": func() error { _, err := c.Answer(ldp.PointQuery(1)); return err }(),
	} {
		if err == nil {
			t.Errorf("%s after a failed read: succeeded", what)
		}
	}
}
