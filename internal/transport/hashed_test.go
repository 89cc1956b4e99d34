package transport

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/rng"
)

const (
	hashedTestM    = 1 << 20
	hashedTestG    = 32
	hashedTestSeed = 0x5eed5eed
)

func hashedTestEnc() hh.DomainEncoding {
	return hh.LolohaEncoding(hashedTestM, hashedTestG, hashedTestSeed)
}

// hashedConnMsgs builds a deterministic stream of valid hashed-domain
// wire messages for one simulated connection: seed-carrying hellos
// followed by bucket-tagged reports.
func hashedConnMsgs(seed uint64, d, n int) []Msg {
	g := rng.New(seed, 53)
	ms := make([]Msg, 0, n+4)
	for u := 0; u < 4; u++ {
		ms = append(ms, HashedDomainHello(int(seed)*1000+u, g.IntN(hashedTestG), g.IntN(dyadic.NumOrders(d)), hashedTestSeed))
	}
	for i := 0; i < n; i++ {
		h := g.IntN(dyadic.NumOrders(d))
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		ms = append(ms, FromDomainReport(g.IntN(hashedTestG), protocol.Report{
			User: int(seed)*1000 + i, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit,
		}))
	}
	return ms
}

// TestHashedDomainScalarRoundTrip checks the two hashed-domain frame
// types survive the wire bit-exactly, alone and inside batch frames,
// and that every truncated prefix fails cleanly.
func TestHashedDomainScalarRoundTrip(t *testing.T) {
	msgs := []Msg{
		HashedDomainHello(0, 0, 0, 0),
		HashedDomainHello(1<<30, hashedTestG-1, 3, ^uint64(0)),
		HashedDomainHello(7, 3, 2, hashedTestSeed),
		HashedDomainSums(2, 2, 0),
		HashedDomainSums(hashedTestM, hashedTestG, hashedTestSeed),
		HashedDomainSums(hh.MaxHashedDomainM, hh.MaxDomainRows, 0x9e3779b97f4a7c15),
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	ingest := []Msg{msgs[0], msgs[1], msgs[2]}
	if err := enc.EncodeBatch(ingest); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	want := append(append([]Msg{}, msgs...), ingest...)
	for i, w := range want {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got != w {
			t.Fatalf("msg %d: got %+v, want %+v", i, got, w)
		}
	}

	for _, m := range msgs {
		var one bytes.Buffer
		e := NewEncoder(&one)
		if err := e.Encode(m); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		full := one.Bytes()
		for cut := 1; cut < len(full); cut++ {
			if got, err := NewDecoder(bytes.NewReader(full[:cut])).Next(); err == nil {
				t.Fatalf("truncated %+v at %d decoded as %+v", m, cut, got)
			}
		}
	}
}

// TestHashedDomainEncodeValidation checks the encoder refuses malformed
// hashed frames before any bytes hit the wire.
func TestHashedDomainEncodeValidation(t *testing.T) {
	enc := NewEncoder(&bytes.Buffer{})
	bad := []Msg{
		{Type: MsgHashedDomainHello, User: -1},
		{Type: MsgHashedDomainHello, User: 1, Item: -1},
		{Type: MsgHashedDomainHello, User: 1, Item: 0, Order: -1, Seed: hashedTestSeed},
		{Type: MsgHashedDomainSums, Item: -1, K: 2},
		{Type: MsgHashedDomainSums, Item: 2, K: -1},
	}
	for i, m := range bad {
		if err := enc.Encode(m); err == nil {
			t.Errorf("bad msg %d (%+v) accepted", i, m)
		}
	}
}

// TestValidateHashedDomainIngest pins the ingest contract of a hashed
// collector: seed-pinned hellos and bucket-ranged reports pass, and in
// particular an exact-encoding hello is rejected outright — the two
// encodings cannot be mixed on one server.
func TestValidateHashedDomainIngest(t *testing.T) {
	const d = 16
	enc := hashedTestEnc()
	cases := []struct {
		name string
		msg  Msg
		ok   bool
	}{
		{"hello", HashedDomainHello(1, 3, 2, hashedTestSeed), true},
		{"hello max bucket", HashedDomainHello(1, hashedTestG-1, 0, hashedTestSeed), true},
		{"report", FromDomainReport(5, protocol.Report{User: 1, Order: 1, J: 2, Bit: -1}), true},
		{"hello wrong seed", HashedDomainHello(1, 3, 2, hashedTestSeed+1), false},
		{"hello bucket = g", HashedDomainHello(1, hashedTestG, 0, hashedTestSeed), false},
		{"hello negative user", Msg{Type: MsgHashedDomainHello, User: -1, Seed: hashedTestSeed}, false},
		{"hello order too big", HashedDomainHello(1, 0, dyadic.Log2(d)+1, hashedTestSeed), false},
		{"exact hello", DomainHello(1, 3, 2), false},
		{"report bucket = g", FromDomainReport(hashedTestG, protocol.Report{User: 1, J: 1, Bit: 1}), false},
		{"report bit 0", Msg{Type: MsgDomainReport, User: 1, Item: 0, J: 1}, false},
		{"report j out of range", FromDomainReport(0, protocol.Report{User: 1, Order: 0, J: d + 1, Bit: 1}), false},
		{"plain hello", Hello(1, 0), false},
		{"query", DomainQuery(QueryPointItem, 1, 1, 0, 0), false},
	}
	ingest := DomainMode(d, enc, 1).Ingest()
	for _, c := range cases {
		err := ValidateHashedDomainIngest(d, enc, c.msg)
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		// The contract check every served message goes through must agree.
		if got := ingest.check(&c.msg, new(Rec)); got != (err == nil) {
			t.Errorf("%s: contract says %v, error builder says %v", c.name, got, err)
		}
	}
	// And the exact-domain validator must symmetrically reject the
	// hashed hello: a hashed client cannot feed an exact server.
	if err := ValidateDomainIngest(d, 8, HashedDomainHello(1, 3, 2, hashedTestSeed)); err == nil {
		t.Error("exact validator accepted a hashed hello")
	}
}

// TestValidateHashedDomainQuery checks the one bound the hashed query
// validator adds over the exact one: top-k capped by the answer frame.
func TestValidateHashedDomainQuery(t *testing.T) {
	const d = 16
	if err := ValidateDomainQuery(d, hashedTestEnc(), DomainQuery(QueryTopK, 0, d, 0, MaxAnswerLen)); err != nil {
		t.Errorf("top-k at the cap rejected: %v", err)
	}
	if err := ValidateDomainQuery(d, hashedTestEnc(), DomainQuery(QueryTopK, 0, d, 0, MaxAnswerLen+1)); err == nil {
		t.Error("top-k over the answer cap accepted")
	}
	if err := ValidateDomainQuery(d, hashedTestEnc(), DomainQuery(QueryPointItem, hashedTestM, d, 0, 0)); err == nil {
		t.Error("point query past the catalogue accepted")
	}
}

// fillHashedPair feeds the same deterministic stream into a sharded
// hashed server (through the collector) and a serial reference.
func fillHashedPair(t *testing.T, col *Collector, serial *hh.HashedDomainServer, d, n int) {
	t.Helper()
	g := rng.New(99, 3)
	for u := 0; u < n; u++ {
		b := g.IntN(hashedTestG)
		h := g.IntN(dyadic.NumOrders(d))
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		r := protocol.Report{User: u, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit}
		if err := col.SendBatch(u%4, []Msg{
			HashedDomainHello(u, b, h, hashedTestSeed),
			FromDomainReport(b, r),
		}); err != nil {
			t.Fatal(err)
		}
		serial.Inner().Register(0, b, h)
		serial.Inner().Ingest(0, b, r)
	}
}

// TestAnswerHashedDomainQuery checks every query shape answered through
// the bucket decoder matches a serial hashed server bit for bit, and
// that collector stats count what went in.
func TestAnswerHashedDomainQuery(t *testing.T) {
	const d, scale, n = 16, 2.0, 500
	enc := hashedTestEnc()
	live := hh.NewHashedDomainServer(d, enc, scale, 4)
	col := NewHashedDomainCollector(live)
	serial := hh.NewHashedDomainServer(d, enc, scale, 1)
	fillHashedPair(t, col, serial, d, n)

	hellos, reports, batches := col.Stats()
	if hellos != n || reports != n || batches != n {
		t.Fatalf("stats = (%d, %d, %d), want (%d, %d, %d)", hellos, reports, batches, n, n, n)
	}
	queries := []Msg{
		DomainQuery(QueryPointItem, 0, d, 0, 0),
		DomainQuery(QueryPointItem, hashedTestM-1, 1, 0, 0),
		DomainQuery(QuerySeriesItem, 12345, 0, 0, 0),
		DomainQuery(QueryTopK, 0, d, 0, 7),
		DomainQuery(QueryTopK, 0, d/2, 0, 1),
	}
	for _, q := range queries {
		got, err := answerDomain(live, q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		want, err := answerDomain(serial, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: sharded answered %+v, serial %+v", q, got, want)
		}
	}
}

// TestHashedDomainIngestServerEndToEnd drives the hashed-domain service
// over real TCP: concurrent connections ship batched hellos and bucket
// reports with interleaved item queries and a raw-sums request, and the
// final answers must match a serial hashed server bit for bit.
func TestHashedDomainIngestServerEndToEnd(t *testing.T) {
	const (
		d     = 32
		scale = 2.5
		conns = 4
		perC  = 600
		batch = 64
	)
	enc0 := hashedTestEnc()
	srv := NewIngestServer(NewHashedDomainCollector(hh.NewHashedDomainServer(d, enc0, scale, conns)))
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
			enc := NewEncoder(conn)
			dec := NewDecoder(conn)
			ms := hashedConnMsgs(uint64(c), d, perC)
			for lo := 0; lo < len(ms); lo += batch {
				hi := min(lo+batch, len(ms))
				if err := enc.EncodeBatch(ms[lo:hi]); err != nil {
					t.Error(err)
					return
				}
			}
			// Fence: a query response proves every batch above applied.
			if err := enc.Encode(DomainQuery(QueryPointItem, 42, d, 0, 0)); err != nil {
				t.Error(err)
				return
			}
			if err := enc.Flush(); err != nil {
				t.Error(err)
				return
			}
			if _, err := dec.ReadDomainAnswer(); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()

	serial := hh.NewHashedDomainServer(d, enc0, scale, 1)
	for c := 0; c < conns; c++ {
		for _, m := range hashedConnMsgs(uint64(c), d, perC) {
			switch m.Type {
			case MsgHashedDomainHello:
				serial.Inner().Register(0, m.Item, m.Order)
			case MsgDomainReport:
				serial.Inner().Ingest(0, m.Item, protocol.Report{User: m.User, Order: m.Order, J: m.J, Bit: m.Bit})
			}
		}
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := NewEncoder(conn)
	dec := NewDecoder(conn)
	queries := []Msg{
		DomainQuery(QueryPointItem, 0, d, 0, 0),
		DomainQuery(QuerySeriesItem, hashedTestM-1, 0, 0, 0),
		DomainQuery(QueryTopK, 0, d, 0, 9),
	}
	for _, q := range queries {
		if err := enc.Encode(q); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := dec.ReadDomainAnswer()
		if err != nil {
			t.Fatal(err)
		}
		want, err := answerDomain(serial, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: wire answered %+v, serial %+v", q, got, want)
		}
	}
	// The stacked-gateway path: an encoding-checked raw-sums request
	// returns the g-row bucket state, identical to the serial fold.
	if err := enc.Encode(HashedDomainSums(hashedTestM, hashedTestG, hashedTestSeed)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	sums, err := dec.ReadDomainSums()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sums, DomainSumsFromServer(serial.Inner())) {
		t.Fatal("wire sums differ from serial fold")
	}

	// A sums request under a different epoch seed is refused: the
	// connection dies instead of returning misinterpretable counters.
	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	srv.ErrorLog = nil // the refusal below is expected
	be := NewEncoder(bad)
	if err := be.Encode(HashedDomainSums(hashedTestM, hashedTestG, hashedTestSeed+1)); err != nil {
		t.Fatal(err)
	}
	if err := be.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(bad).ReadDomainSums(); err == nil {
		t.Fatal("mismatched-seed sums request answered")
	}

	srv.Shutdown(5 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDurableHashedDomainCollector checks the hashed snapshot+WAL
// cycle: feed, snapshot, feed a WAL suffix, crash, reopen — recovered
// bucket state answers bit for bit — and every meta mismatch (catalogue
// size, bucket count, encoding name, epoch seed) is refused at open.
func TestDurableHashedDomainCollector(t *testing.T) {
	const d, scale = 16, 2.0
	enc := hashedTestEnc()
	dir := t.TempDir()
	meta := persist.Meta{
		Mechanism: "test", D: d, K: 2, M: hashedTestM, G: hashedTestG,
		Encoding: enc.Name, HashSeed: enc.Seed, Eps: 1, Scale: scale,
	}
	mk := func() *hh.HashedDomainServer { return hh.NewHashedDomainServer(d, enc, scale, 2) }

	col, stats, err := OpenDurableStore(NewHashedDomainCollector(mk()), dir, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotCursor != 0 || stats.Replayed != 0 {
		t.Fatalf("fresh dir recovered %+v", stats)
	}
	ref := hh.NewHashedDomainServer(d, enc, scale, 1)
	g := rng.New(77, 4)
	feed := func(c *Durable, lo, hi int) {
		for u := lo; u < hi; u++ {
			b := g.IntN(hashedTestG)
			h := g.IntN(dyadic.NumOrders(d))
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			r := protocol.Report{User: u, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit}
			if err := c.SendBatch(u, []Msg{HashedDomainHello(u, b, h, hashedTestSeed), FromDomainReport(b, r)}); err != nil {
				t.Fatal(err)
			}
			ref.Inner().Register(0, b, h)
			ref.Inner().Ingest(0, b, r)
		}
	}
	feed(col, 0, 200)
	if _, err := col.Snapshot(); err != nil {
		t.Fatal(err)
	}
	feed(col, 200, 400) // WAL suffix past the snapshot
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	hs2 := mk()
	col2, stats2, err := OpenDurableStore(NewHashedDomainCollector(hs2), dir, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	if stats2.SnapshotCursor == 0 || stats2.Replayed == 0 {
		t.Fatalf("reopen skipped snapshot or WAL: %+v", stats2)
	}
	for _, x := range []int{0, 1, 12345, hashedTestM - 1} {
		a, b := ref.EstimateItemSeries(x), hs2.EstimateItemSeries(x)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("item %d: recovered %v, want %v", x, b, a)
		}
	}
	if !reflect.DeepEqual(ref.TopK(d, 10), hs2.TopK(d, 10)) {
		t.Fatal("recovered TopK differs")
	}
	if hs2.Users() != 400 {
		t.Fatalf("recovered %d users, want 400", hs2.Users())
	}

	// Every axis of the encoding identity is checked at open.
	for name, mutate := range map[string]func(*persist.Meta){
		"catalogue size": func(m *persist.Meta) { m.M++ },
		"bucket count":   func(m *persist.Meta) { m.G++ },
		"encoding name":  func(m *persist.Meta) { m.Encoding = "exact" },
		"hash seed":      func(m *persist.Meta) { m.HashSeed++ },
	} {
		bad := meta
		mutate(&bad)
		if _, _, err := OpenDurableStore(NewHashedDomainCollector(mk()), dir, bad, DurableOptions{}); err == nil {
			t.Errorf("mismatched %s accepted at open", name)
		}
	}
}
