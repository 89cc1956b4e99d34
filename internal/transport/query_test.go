package transport

import (
	"bytes"
	"net"
	"testing"

	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// TestQueryV2RoundTrip checks the versioned query frame survives the
// wire, alone and inside a batch.
func TestQueryV2RoundTrip(t *testing.T) {
	queries := []Msg{
		QueryV2(QueryPoint, 7, 7),
		QueryV2(QueryChange, 3, 12),
		QueryV2(QuerySeries, 0, 0),
		QueryV2(QueryWindow, 1, 64),
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, q := range queries {
		if err := enc.Encode(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.EncodeBatch(queries); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	for i := 0; i < 2*len(queries); i++ {
		m, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := queries[i%len(queries)]; m != want {
			t.Fatalf("frame %d: got %+v, want %+v", i, m, want)
		}
	}
}

// TestAnswerFrameRoundTrip checks answer frames of every shape.
func TestAnswerFrameRoundTrip(t *testing.T) {
	frames := []AnswerFrame{
		{Kind: QueryPoint, L: 5, R: 5, Values: []float64{3.25}},
		{Kind: QueryChange, L: 2, R: 9, Values: []float64{-17.5}},
		{Kind: QuerySeries, Values: []float64{1, 2.5, -3, 0}},
		{Kind: QueryWindow, L: 1, R: 2, Values: []float64{0.5, 0.25}},
		{Kind: QuerySeries}, // no values
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, a := range frames {
		if err := enc.EncodeAnswer(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	for i, want := range frames {
		got, err := dec.ReadAnswer()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.L != want.L || got.R != want.R || len(got.Values) != len(want.Values) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		for j := range want.Values {
			if got.Values[j] != want.Values[j] {
				t.Fatalf("frame %d value %d: got %v, want %v", i, j, got.Values[j], want.Values[j])
			}
		}
	}
	// An answer frame is not a valid Next message.
	var buf2 bytes.Buffer
	enc2 := NewEncoder(&buf2)
	if err := enc2.EncodeAnswer(frames[0]); err != nil {
		t.Fatal(err)
	}
	if err := enc2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(&buf2).Next(); err == nil {
		t.Fatal("Next accepted an answer frame")
	}
}

// TestNegativeUserRejected checks the user-id validation at every
// boundary: the encoder, both decode paths, and the collector.
func TestNegativeUserRejected(t *testing.T) {
	enc := NewEncoder(&bytes.Buffer{})
	if err := enc.Encode(Hello(-1, 0)); err == nil {
		t.Error("encoder accepted a negative hello user")
	}
	if err := enc.Encode(Msg{Type: MsgReport, User: -2, Order: 0, J: 1, Bit: 1}); err == nil {
		t.Error("encoder accepted a negative report user")
	}
	if err := enc.EncodeBatch([]Msg{Hello(-1, 0)}); err == nil {
		t.Error("batch encoder accepted a negative user")
	}

	// A wire-level user id ≥ 2^63 would decode to a negative int; both
	// the streaming and the batched fast path must reject it. The
	// uvarint below is 2^63 (nine 0x80 continuation bytes + 0x01).
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	hello := append([]byte{byte(MsgHello)}, huge...)
	hello = append(hello, 0) // order
	if _, err := NewDecoder(bytes.NewReader(hello)).Next(); err == nil {
		t.Error("decoder accepted an overflowing hello user id")
	}
	report := append([]byte{byte(MsgReport)}, huge...)
	report = append(report, 0, 1, 1) // order, j, bit
	if _, err := NewDecoder(bytes.NewReader(report)).Next(); err == nil {
		t.Error("decoder accepted an overflowing report user id")
	}
	// Same bytes inside a batch frame (exercises the Peek fast path when
	// enough bytes are buffered).
	batch := []byte{byte(MsgBatch), 1}
	batch = append(batch, report...)
	batch = append(batch, make([]byte, 64)...) // padding so the fast path engages
	if _, err := NewDecoder(bytes.NewReader(batch)).Next(); err == nil {
		t.Error("batch decoder accepted an overflowing report user id")
	}

	col := NewShardedCollector(protocol.NewSharded(16, 1, 1))
	if err := col.SendBatch(0, []Msg{{Type: MsgHello, User: -1, Order: 0}}); err == nil {
		t.Error("collector accepted a negative hello user")
	}
	if err := col.SendBatch(0, []Msg{{Type: MsgReport, User: -1, Order: 0, J: 1, Bit: 1}}); err == nil {
		t.Error("collector accepted a negative report user")
	}
	if err := col.SendBatch(0, []Msg{{Type: MsgReport, User: -1, Order: 0, J: 1, Bit: 1}}); err == nil {
		t.Error("batch collector accepted a negative report user")
	}
	if err := col.SendBatch(0, []Msg{{Type: MsgHello, User: -1, Order: 0}}); err == nil {
		t.Error("batch collector accepted a negative hello user")
	}
}

// TestAnswerQueryMatchesSerial checks AnswerQuery against a serial
// Server fed the same reports, for every query kind, bit for bit.
func TestAnswerQueryMatchesSerial(t *testing.T) {
	const d, scale = 64, 2.5
	acc := protocol.NewSharded(d, scale, 4)
	serial := protocol.NewServer(d, scale)
	g := rng.New(7, 9)
	for i := 0; i < 5000; i++ {
		h := g.IntN(7)
		r := protocol.Report{User: i, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: 1}
		if g.Bernoulli(0.5) {
			r.Bit = -1
		}
		acc.Ingest(i%4, r)
		serial.Ingest(r)
	}

	check := func(m Msg, want []float64) {
		t.Helper()
		a, err := AnswerQuery(acc, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Values) != len(want) {
			t.Fatalf("%s: %d values, want %d", m.Kind, len(a.Values), len(want))
		}
		for i := range want {
			if a.Values[i] != want[i] {
				t.Fatalf("%s value %d: got %v, want %v", m.Kind, i, a.Values[i], want[i])
			}
		}
	}
	check(QueryV2(QueryPoint, 17, 17), []float64{serial.EstimateAt(17)})
	check(QueryV2(QueryChange, 5, 40), []float64{serial.EstimateChange(5, 40)})
	check(QueryV2(QuerySeries, 0, 0), serial.EstimateSeries())
	check(QueryV2(QueryWindow, 9, 24), serial.EstimateSeries()[8:24])

	for _, bad := range []Msg{
		QueryV2(QueryPoint, 0, 0),
		QueryV2(QueryPoint, d+1, d+1),
		QueryV2(QueryChange, 0, 4),
		QueryV2(QueryChange, 9, 5),
		QueryV2(QueryWindow, 1, d+1),
		QueryV2(QueryKind(99), 1, 1),
		Sums(), // not a v2 frame
	} {
		if _, err := AnswerQuery(acc, bad); err == nil {
			t.Errorf("invalid query %+v accepted", bad)
		}
	}
}

// reusingEstimator is an Estimator whose series methods hand out the
// same internal buffer every call — the engine shape the window-query
// path must defend against by cloning.
type reusingEstimator struct {
	d   int
	buf []float64
}

func (e *reusingEstimator) D() int                          { return e.d }
func (e *reusingEstimator) EstimateAt(t int) float64        { return float64(t) }
func (e *reusingEstimator) EstimateChange(l, r int) float64 { return float64(r - l) }
func (e *reusingEstimator) EstimateSeries() []float64       { return e.EstimateSeriesTo(e.d) }
func (e *reusingEstimator) EstimateSeriesTo(r int) []float64 {
	if e.buf == nil {
		e.buf = make([]float64, e.d)
	}
	for t := 1; t <= r; t++ {
		e.buf[t-1] = float64(t)
	}
	return e.buf[:r]
}

// TestAnswerQueryWindowNoAliasing is the regression test for the
// window-answer aliasing bug: the answer used to be a view into the
// engine's full [1..R] series, so an engine reusing an internal buffer
// (or a caller mutating the answer) corrupted other answers. The window
// answer must be exactly R−L+1 elements with its own backing array.
func TestAnswerQueryWindowNoAliasing(t *testing.T) {
	est := &reusingEstimator{d: 32}
	const l, r = 5, 12
	a, err := AnswerQuery(est, QueryV2(QueryWindow, l, r))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Values) != r-l+1 || cap(a.Values) != r-l+1 {
		t.Fatalf("window answer len=%d cap=%d, want %d/%d", len(a.Values), cap(a.Values), r-l+1, r-l+1)
	}
	// A second query through the same engine reuses its buffer; the
	// first answer must not change. Series answers get the same
	// ownership guarantee.
	first := append([]float64(nil), a.Values...)
	series, err := AnswerQuery(est, QueryV2(QuerySeries, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	firstSeries := append([]float64(nil), series.Values...)
	for i := range est.buf {
		est.buf[i] = -999 // simulate the engine scribbling on its buffer
	}
	for i := range first {
		if a.Values[i] != first[i] {
			t.Fatalf("window answer value %d changed from %v to %v after the engine reused its buffer", i, first[i], a.Values[i])
		}
	}
	for i := range firstSeries {
		if series.Values[i] != firstSeries[i] {
			t.Fatalf("series answer value %d changed from %v to %v after the engine reused its buffer", i, firstSeries[i], series.Values[i])
		}
	}
	// And mutating the answer must not reach the engine's state.
	a.Values[0] = 1e9
	if got := est.EstimateSeriesTo(r)[l-1]; got == 1e9 {
		t.Fatal("mutating the answer reached the engine's buffer")
	}
}

// TestIngestServerAnswersV2 drives v2 queries over real TCP.
func TestIngestServerAnswersV2(t *testing.T) {
	const d = 32
	srv := NewIngestServer(NewShardedCollector(protocol.NewSharded(d, 2, 2)))
	srv.ErrorLog = func(err error) { t.Error(err) }
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(conn)
	dec := NewDecoder(conn)
	// A batch mixing reports and a v2 query: the query answers in stream
	// order, after the reports before it are applied.
	ms := []Msg{
		Hello(1, 0),
		FromReport(protocol.Report{User: 1, Order: 0, J: 3, Bit: 1}),
		QueryV2(QueryWindow, 1, 4),
	}
	if err := enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := dec.ReadAnswer()
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != QueryWindow || len(a.Values) != 4 {
		t.Fatalf("bad answer %+v", a)
	}
	// The report at I{0,3} contributes 2 (scale 2) to â[3] only: C(3)
	// includes I{0,3}, while C(4) = {I{2,1}} does not.
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if a.Values[i] != want[i] {
			t.Fatalf("window value %d: got %v, want %v", i, a.Values[i], want[i])
		}
	}
	conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
