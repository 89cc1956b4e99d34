package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// fillDomainServer ingests a deterministic report mix into ds across
// every item and order.
func fillDomainServer(t testing.TB, ds *hh.DomainServer, n int, seed uint64) {
	t.Helper()
	g := rng.New(seed, 7)
	d := ds.D()
	for u := 0; u < n; u++ {
		item := g.IntN(ds.M())
		h := g.IntN(dyadic.NumOrders(d))
		ds.Register(0, item, h)
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		ds.Ingest(0, item, protocol.Report{User: u, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit})
	}
}

// TestDomainScalarRoundTrip checks every domain scalar message survives
// the wire bit-exactly, alone and inside batch frames.
func TestDomainScalarRoundTrip(t *testing.T) {
	msgs := []Msg{
		DomainHello(0, 0, 0),
		DomainHello(12345, 7, 3),
		FromDomainReport(2, protocol.Report{User: 9, Order: 1, J: 4, Bit: 1}),
		FromDomainReport(0, protocol.Report{User: 1 << 30, Order: 0, J: 1, Bit: -1}),
		DomainQuery(QueryPointItem, 3, 17, 0, 0),
		DomainQuery(QuerySeriesItem, 2, 0, 0, 0),
		DomainQuery(QueryTopK, 0, 9, 0, 5),
		DomainSums(),
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	ingest := []Msg{msgs[0], msgs[1], msgs[2], msgs[3]}
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
	if _, err := dec.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestDomainEncodeValidation checks the encoder refuses malformed
// domain messages.
func TestDomainEncodeValidation(t *testing.T) {
	enc := NewEncoder(&bytes.Buffer{})
	bad := []Msg{
		{Type: MsgDomainHello, User: -1},
		{Type: MsgDomainHello, User: 1, Item: -1},
		{Type: MsgDomainReport, User: -1, Item: 0, J: 1, Bit: 1},
		{Type: MsgDomainReport, User: 1, Item: -2, J: 1, Bit: 1},
		{Type: MsgDomainReport, User: 1, Item: 0, J: 1, Bit: 0},
		{Type: MsgDomainHello, User: 1, Item: 0, Order: -1},
		{Type: MsgDomainReport, User: 1, Item: 0, Order: -1, J: 1, Bit: 1},
		{Type: MsgDomainReport, User: 1, Item: 0, J: -3, Bit: 1},
		{Type: MsgDomainQuery, Kind: QueryPointItem, Item: -1},
		{Type: MsgDomainQuery, Kind: QueryTopK, K: -1},
	}
	for i, m := range bad {
		if err := enc.Encode(m); err == nil {
			t.Errorf("bad msg %d (%+v) accepted", i, m)
		}
	}
}

// TestDomainScalarTruncation feeds every prefix of valid encodings to
// the decoder: all must fail cleanly, never panic or misparse.
func TestDomainScalarTruncation(t *testing.T) {
	msgs := []Msg{
		DomainHello(300, 5, 2),
		FromDomainReport(3, protocol.Report{User: 77, Order: 2, J: 3, Bit: 1}),
		DomainQuery(QueryTopK, 0, 300, 0, 1000),
		DomainSums(),
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		for cut := 1; cut < len(full); cut++ {
			dec := NewDecoder(bytes.NewReader(full[:cut]))
			if got, err := dec.Next(); err == nil {
				t.Fatalf("truncated %v at %d decoded as %+v", m, cut, got)
			}
		}
	}
}

// TestDomainAnswerRoundTrip pins the variable-length answer frame.
func TestDomainAnswerRoundTrip(t *testing.T) {
	frames := []DomainAnswerFrame{
		{Kind: QueryPointItem, Item: 3, L: 17, Values: []float64{42.5}},
		{Kind: QuerySeriesItem, Item: 0, Values: []float64{1, -2.5, 3e300, 0}},
		{Kind: QueryTopK, L: 9, K: 3, Items: []int{2, 0, 1}, Values: []float64{30, 20, 20}},
		{Kind: QueryTopK, L: 1, K: 0},
	}
	for _, f := range frames {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.EncodeDomainAnswer(f); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		full := append([]byte(nil), buf.Bytes()...)
		got, err := NewDecoder(&buf).ReadDomainAnswer()
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != f.Kind || got.Item != f.Item || got.L != f.L || got.R != f.R || got.K != f.K ||
			len(got.Items) != len(f.Items) || len(got.Values) != len(f.Values) {
			t.Fatalf("round trip: got %+v, want %+v", got, f)
		}
		for i := range f.Items {
			if got.Items[i] != f.Items[i] {
				t.Fatalf("item %d: got %d, want %d", i, got.Items[i], f.Items[i])
			}
		}
		for i := range f.Values {
			if got.Values[i] != f.Values[i] {
				t.Fatalf("value %d: got %v, want %v", i, got.Values[i], f.Values[i])
			}
		}
		// Truncations fail cleanly.
		for cut := 1; cut < len(full); cut++ {
			if _, err := NewDecoder(bytes.NewReader(full[:cut])).ReadDomainAnswer(); err == nil {
				t.Fatalf("truncated answer at %d accepted", cut)
			}
		}
	}
	// Encoder validation.
	enc := NewEncoder(&bytes.Buffer{})
	if err := enc.EncodeDomainAnswer(DomainAnswerFrame{Item: -1}); err == nil {
		t.Error("negative item accepted")
	}
	if err := enc.EncodeDomainAnswer(DomainAnswerFrame{Items: []int{-1}}); err == nil {
		t.Error("negative item entry accepted")
	}
	if err := enc.EncodeDomainAnswer(DomainAnswerFrame{Values: make([]float64, MaxAnswerLen+1)}); err == nil {
		t.Error("oversized answer accepted")
	}
	// Wrong frame type.
	var buf bytes.Buffer
	e2 := NewEncoder(&buf)
	if err := e2.Encode(Hello(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(&buf).ReadDomainAnswer(); err == nil {
		t.Error("hello accepted as domain answer")
	}
}

// testDomainServer builds a filled server for frame tests.
func testDomainServer(t testing.TB, d, m int, scale float64) *hh.DomainServer {
	t.Helper()
	ds := hh.NewDomainServer(d, m, scale, 2)
	fillDomainServer(t, ds, 500, 11)
	return ds
}

// TestDomainSumsRoundTrip pins the per-item raw-sums frame: encode,
// decode, merge, and bit-for-bit equality of every estimate.
func TestDomainSumsRoundTrip(t *testing.T) {
	ds := testDomainServer(t, 32, 5, 17.25)
	f := DomainSumsFromServer(ds)
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.EncodeDomainSums(f); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	got, err := NewDecoder(&buf).ReadDomainSums()
	if err != nil {
		t.Fatal(err)
	}
	merged := hh.NewDomainServer(32, 5, 17.25, 1)
	if err := got.MergeInto(merged); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 5; x++ {
		a, b := ds.EstimateItemSeries(x), merged.EstimateItemSeries(x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("item %d t=%d: merged %v, want %v", x, i+1, b[i], a[i])
			}
		}
	}
	if merged.Users() != ds.Users() {
		t.Fatalf("merged %d users, want %d", merged.Users(), ds.Users())
	}
	// Truncations fail cleanly.
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := NewDecoder(bytes.NewReader(full[:cut])).ReadDomainSums(); err == nil {
			t.Fatalf("truncated sums at %d accepted", cut)
		}
	}
	// Mismatched merges are refused.
	if err := got.MergeInto(hh.NewDomainServer(32, 4, 17.25, 1)); err == nil {
		t.Error("merge into wrong m accepted")
	}
	if err := got.MergeInto(hh.NewDomainServer(16, 5, 17.25, 1)); err == nil {
		t.Error("merge into wrong d accepted")
	}
	if err := got.MergeInto(hh.NewDomainServer(32, 5, 18, 1)); err == nil {
		t.Error("merge into wrong scale accepted")
	}
}

// TestDomainSumsCorruption flips headers into invalid shapes; decode
// must fail with descriptive errors, before any huge allocation.
func TestDomainSumsCorruption(t *testing.T) {
	ds := testDomainServer(t, 16, 4, 3)
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.EncodeDomainSums(DomainSumsFromServer(ds)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	mut := func(mutate func(b []byte)) error {
		b := append([]byte(nil), full...)
		mutate(b)
		_, err := NewDecoder(bytes.NewReader(b)).ReadDomainSums()
		return err
	}
	if err := mut(func(b []byte) { b[1] = 99 }); err == nil {
		t.Error("bad version accepted")
	}
	if err := mut(func(b []byte) { b[2] = 15 }); err == nil {
		t.Error("non-pow2 horizon accepted")
	}
	if err := mut(func(b []byte) { b[3] = 1 }); err == nil {
		t.Error("domain of one accepted")
	}
	if err := mut(func(b []byte) { b[0] = byte(MsgSumsFrame) }); err == nil {
		t.Error("wrong frame type accepted")
	}
	// Encoder-side validation.
	if err := enc.EncodeDomainSums(RawSums{D: 16, M: 1}); err == nil {
		t.Error("domain of one encoded")
	}
	if err := enc.EncodeDomainSums(RawSums{D: 16, M: MaxDomainM + 1}); err == nil {
		t.Error("oversized domain encoded")
	}
	f := DomainSumsFromServer(ds)
	f.Counters[0] = -1
	if err := enc.EncodeDomainSums(f); err == nil {
		t.Error("negative user count encoded")
	}
}

// TestValidateDomainIngest covers the validation table.
func TestValidateDomainIngest(t *testing.T) {
	const d, m = 16, 4
	ok := []Msg{
		DomainHello(0, 0, 0),
		DomainHello(5, 3, 4),
		FromDomainReport(2, protocol.Report{User: 1, Order: 2, J: 4, Bit: -1}),
	}
	for _, msg := range ok {
		if err := ValidateDomainIngest(d, m, msg); err != nil {
			t.Errorf("valid %+v rejected: %v", msg, err)
		}
	}
	bad := []Msg{
		{Type: MsgDomainHello, User: -1},
		{Type: MsgDomainHello, User: 1, Item: 4},
		{Type: MsgDomainHello, User: 1, Item: 0, Order: 5},
		{Type: MsgDomainReport, User: 1, Item: 0, Order: 0, J: 0, Bit: 1},
		{Type: MsgDomainReport, User: 1, Item: 0, Order: 0, J: 17, Bit: 1},
		{Type: MsgDomainReport, User: 1, Item: 0, Order: 2, J: 5, Bit: 1},
		{Type: MsgDomainReport, User: 1, Item: 0, Order: 0, J: 1, Bit: 0},
		{Type: MsgDomainReport, User: 1, Item: -1, Order: 0, J: 1, Bit: 1},
		Hello(1, 0), // Boolean hello on a domain server
		pointQ(1),   // a Boolean read is not ingestible either
		{Type: MsgDomainQuery, Kind: QueryPointItem, Item: 0, L: 1}, // queries are not ingest
	}
	for _, msg := range bad {
		if err := ValidateDomainIngest(d, m, msg); err == nil {
			t.Errorf("invalid %+v accepted", msg)
		}
	}
}

// TestValidateDomainQuery covers the query validation table.
func TestValidateDomainQuery(t *testing.T) {
	const d, m = 16, 4
	ok := []Msg{
		DomainQuery(QueryPointItem, 0, 1, 0, 0),
		DomainQuery(QueryPointItem, 3, 16, 0, 0),
		DomainQuery(QuerySeriesItem, 2, 0, 0, 0),
		DomainQuery(QueryTopK, 0, 8, 0, 0),
		DomainQuery(QueryTopK, 0, 8, 0, 100),
	}
	for _, msg := range ok {
		if err := ValidateDomainQuery(d, hh.ExactEncoding(m), msg); err != nil {
			t.Errorf("valid %+v rejected: %v", msg, err)
		}
	}
	bad := []Msg{
		DomainQuery(QueryPointItem, 4, 1, 0, 0),
		DomainQuery(QueryPointItem, 0, 0, 0, 0),
		DomainQuery(QueryPointItem, 0, 17, 0, 0),
		DomainQuery(QuerySeriesItem, 4, 0, 0, 0),
		DomainQuery(QueryTopK, 0, 0, 0, 1),
		DomainQuery(QueryTopK, 0, 17, 0, 1),
		{Type: MsgDomainQuery, Kind: QueryTopK, L: 1, K: -1},
		DomainQuery(QueryPoint, 0, 1, 0, 0), // Boolean kind in a domain frame
		DomainQuery(QueryKind(99), 0, 1, 0, 0),
		QueryV2(QueryPoint, 1, 0), // not a domain query at all
	}
	for _, msg := range bad {
		if err := ValidateDomainQuery(d, hh.ExactEncoding(m), msg); err == nil {
			t.Errorf("invalid %+v accepted", msg)
		}
	}
}

// TestAnswerDomainQuery pins the answer payloads against the direct
// engine reads.
func TestAnswerDomainQuery(t *testing.T) {
	ds := testDomainServer(t, 16, 4, 2.5)
	a, err := answerDomain(ds, DomainQuery(QueryPointItem, 2, 9, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Values) != 1 || a.Values[0] != ds.EstimateItemAt(2, 9) {
		t.Fatalf("point-item answer %+v", a)
	}
	a, err = answerDomain(ds, DomainQuery(QuerySeriesItem, 1, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	series := ds.EstimateItemSeries(1)
	if len(a.Values) != len(series) {
		t.Fatalf("series-item answer has %d values, want %d", len(a.Values), len(series))
	}
	for i := range series {
		if a.Values[i] != series[i] {
			t.Fatalf("series value %d: %v, want %v", i, a.Values[i], series[i])
		}
	}
	a, err = answerDomain(ds, DomainQuery(QueryTopK, 0, 16, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	top := ds.TopK(16, 3)
	if len(a.Items) != len(top) || len(a.Values) != len(top) {
		t.Fatalf("top-k answer shape %d/%d, want %d", len(a.Items), len(a.Values), len(top))
	}
	for i, ic := range top {
		if a.Items[i] != ic.Item || a.Values[i] != ic.Count {
			t.Fatalf("top-k answer %v/%v, want %v", a.Items, a.Values, top)
		}
	}
}

// answerDomain answers q from items into a fresh frame: the served path
// once ValidateRead has passed q.
func answerDomain(items hh.Items, q Msg) (DomainAnswerFrame, error) {
	var a DomainAnswerFrame
	var sc TopKScratch
	_, err := AnswerDomainQueryInto(items, q, &a, &sc)
	return a, err
}

// TestDomainIngestServer drives the TCP domain mode end to end: ingest
// batches, item-scoped queries, per-item sums fetches, and batch
// atomicity across query boundaries.
func TestDomainIngestServer(t *testing.T) {
	const d, m, scale = 16, 4, 2.0
	ds := hh.NewDomainServer(d, m, scale, 4)
	srv := NewIngestServer(NewDomainCollector(ds))
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	ref := hh.NewDomainServer(d, m, scale, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := NewEncoder(conn)
	dec := NewDecoder(conn)

	g := rng.New(3, 9)
	var batch []Msg
	for u := 0; u < 300; u++ {
		item := g.IntN(m)
		h := g.IntN(dyadic.NumOrders(d))
		batch = append(batch, DomainHello(u, item, h))
		ref.Register(0, item, h)
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		r := protocol.Report{User: u, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit}
		batch = append(batch, FromDomainReport(item, r))
		ref.Ingest(0, item, r)
	}
	// Mixed batch: ingest run, then queries answered in stream order.
	batch = append(batch,
		DomainQuery(QueryPointItem, 1, d, 0, 0),
		DomainQuery(QuerySeriesItem, 2, 0, 0, 0),
		DomainQuery(QueryTopK, 0, d, 0, m),
	)
	if err := enc.EncodeBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	point, err := dec.ReadDomainAnswer()
	if err != nil {
		t.Fatal(err)
	}
	if point.Values[0] != ref.EstimateItemAt(1, d) {
		t.Fatalf("point-item over TCP %v, want %v", point.Values[0], ref.EstimateItemAt(1, d))
	}
	series, err := dec.ReadDomainAnswer()
	if err != nil {
		t.Fatal(err)
	}
	want := ref.EstimateItemSeries(2)
	for i := range want {
		if series.Values[i] != want[i] {
			t.Fatalf("series-item value %d: %v, want %v", i, series.Values[i], want[i])
		}
	}
	topA, err := dec.ReadDomainAnswer()
	if err != nil {
		t.Fatal(err)
	}
	top := ref.TopK(d, m)
	for i, ic := range top {
		if topA.Items[i] != ic.Item || topA.Values[i] != ic.Count {
			t.Fatalf("top-k over TCP %v/%v, want %v", topA.Items, topA.Values, top)
		}
	}

	// Raw per-item sums: the gateway's carrier.
	if err := enc.Encode(DomainSums()); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := dec.ReadDomainSums()
	if err != nil {
		t.Fatal(err)
	}
	merged := hh.NewDomainServer(d, m, scale, 1)
	if err := f.MergeInto(merged); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < m; x++ {
		a, b := ref.EstimateItemSeries(x), merged.EstimateItemSeries(x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("item %d: fetched sums diverge at t=%d", x, i+1)
			}
		}
	}

	// Batch atomicity across the network: a batch with a bad query after
	// valid reports must apply nothing and fail the connection.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	enc2 := NewEncoder(conn2)
	before, _, _ := srv.store.Stats()
	poison := []Msg{
		DomainHello(9999, 0, 0),
		DomainQuery(QueryPointItem, m+3, 1, 0, 0), // invalid item
	}
	if err := enc2.EncodeBatch(poison); err != nil {
		t.Fatal(err)
	}
	if err := enc2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(conn2).ReadDomainAnswer(); err == nil {
		t.Fatal("poisoned batch answered")
	}
	after, _, _ := srv.store.Stats()
	if after != before {
		t.Fatalf("poisoned batch applied %d hellos", after-before)
	}

	// Boolean frames on a domain server fail the connection.
	conn3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	enc3 := NewEncoder(conn3)
	if err := enc3.Encode(Hello(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc3.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(conn3).Next(); !errors.Is(err, io.EOF) && err == nil {
		t.Fatal("boolean hello on a domain server did not close the connection")
	}
}

// TestDurableDomainCollector proves the domain crash-safety story in
// process: journal + snapshot + reopen must reproduce every estimate
// bit-for-bit, through both the WAL-replay and snapshot+suffix paths.
func TestDurableDomainCollector(t *testing.T) {
	const d, m, scale = 16, 4, 2.0
	dir := t.TempDir()
	meta := persist.Meta{Mechanism: "test", D: d, K: 2, M: m, Eps: 1, Scale: scale}

	mk := func() *hh.DomainServer { return hh.NewDomainServer(d, m, scale, 2) }
	ds := mk()
	col, stats, err := OpenDurableStore(NewDomainCollector(ds), dir, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotCursor != 0 || stats.Replayed != 0 {
		t.Fatalf("fresh dir recovered %+v", stats)
	}
	ref := hh.NewDomainServer(d, m, scale, 1)
	g := rng.New(21, 4)
	feed := func(c *Durable, lo, hi int) {
		for u := lo; u < hi; u++ {
			item := g.IntN(m)
			h := g.IntN(dyadic.NumOrders(d))
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			r := protocol.Report{User: u, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit}
			batch := []Msg{DomainHello(u, item, h), FromDomainReport(item, r)}
			if err := c.SendBatch(u, batch); err != nil {
				t.Fatal(err)
			}
			ref.Register(0, item, h)
			ref.Ingest(0, item, r)
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

	ds2 := mk()
	col2, stats2, err := OpenDurableStore(NewDomainCollector(ds2), dir, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	if stats2.SnapshotCursor == 0 {
		t.Fatal("snapshot not used on reopen")
	}
	if stats2.Replayed == 0 {
		t.Fatal("WAL suffix not replayed on reopen")
	}
	for x := 0; x < m; x++ {
		a, b := ref.EstimateItemSeries(x), ds2.EstimateItemSeries(x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("item %d t=%d: recovered %v, want %v", x, i+1, b[i], a[i])
			}
		}
	}
	ta, tb := ref.TopK(d, m), ds2.TopK(d, m)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("recovered TopK %v, want %v", tb, ta)
		}
	}
	if ds2.Users() != 400 {
		t.Fatalf("recovered %d users, want 400", ds2.Users())
	}

	// A differently-configured reopen is refused.
	bad := meta
	bad.M = m + 1
	if _, _, err := OpenDurableStore(NewDomainCollector(hh.NewDomainServer(d, m+1, scale, 1)), dir, bad, DurableOptions{}); err == nil {
		t.Fatal("mismatched meta accepted")
	}
	// Meta/domain-size mismatch at open is refused before touching disk.
	if _, _, err := OpenDurableStore(NewDomainCollector(mk()), t.TempDir(), bad, DurableOptions{}); err == nil {
		t.Fatal("meta.M != server.M accepted")
	}
	// Atomic batches: a bad batch journals nothing.
	ds3 := mk()
	dir3 := t.TempDir()
	col3, _, err := OpenDurableStore(NewDomainCollector(ds3), dir3, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	poison := []Msg{DomainHello(1, 0, 0), {Type: MsgDomainReport, User: 1, Item: m, J: 1, Bit: 1}}
	if err := col3.SendBatch(0, poison); err == nil {
		t.Fatal("poisoned batch accepted")
	}
	if err := col3.Close(); err != nil {
		t.Fatal(err)
	}
	ds4 := mk()
	_, stats4, err := OpenDurableStore(NewDomainCollector(ds4), dir3, meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats4.Replayed != 0 || ds4.Users() != 0 {
		t.Fatalf("poisoned batch left %d records / %d users behind", stats4.Replayed, ds4.Users())
	}
}
