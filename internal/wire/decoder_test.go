package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// The tests of this file look inside the Decoder: the buffers it keeps
// between frames and the general decoder's errors before the window
// loop maps them. The byte format's tests through the exported API are
// in internal/transport, beside the serving core they also drive.

const (
	testD = 64
	testM = 8
)

func testBatch(n int) []Msg {
	g := rng.New(3, 9)
	ms := make([]Msg, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			ms = append(ms, Hello(i, g.IntN(9)))
		default:
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			ms = append(ms, FromReport(protocol.Report{User: i, Order: g.IntN(9), J: 1 + g.IntN(16), Bit: bit}))
		}
	}
	return ms
}

// testIngest builds users' worth of hello-plus-five-reports messages of
// the exact domain (item set) or the Boolean mode, user ids starting at
// first (large ones, so ids take two and three bytes).
func testIngest(item bool, first, users int) []Msg {
	var ms []Msg
	for u := first; u < first+users; u++ {
		order := u % 4
		if item {
			ms = append(ms, DomainHello(u, u%testM, order))
		} else {
			ms = append(ms, Hello(u, order))
		}
		for i := 0; i < 5; i++ {
			bit := int8(1)
			if (u+i)%3 == 0 {
				bit = -1
			}
			r := protocol.Report{User: u, Order: order, J: 1 + (u*5+i*11)%(testD>>uint(order)), Bit: bit}
			if item {
				ms = append(ms, FromDomainReport(u%testM, r))
			} else {
				ms = append(ms, FromReport(r))
			}
		}
	}
	return ms
}

// testFrame encodes ms as one batch frame of the given type.
func testFrame(t testing.TB, typ MsgType, ms []Msg) []byte {
	t.Helper()
	b, err := appendBatch(nil, typ, ms)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPendingBufferReleased checks that the decoder does not pin a
// large batch's decode buffer for the lifetime of the connection: after
// a run of frames that leave it mostly unused — batches and scalars
// alike, through NextBatch and Next — it is let go, and not before.
func TestPendingBufferReleased(t *testing.T) {
	big := testBatch(2 * maxRetainedBatch)
	for _, scalar := range []bool{false, true} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.EncodeBatch(big); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < smallFramesToRelease+1; i++ {
			var err error
			if scalar {
				err = enc.Encode(big[0])
			} else {
				err = enc.EncodeBatch(big[:4])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(&buf)
		if ms, err := dec.NextBatch(); err != nil || len(ms) != len(big) {
			t.Fatalf("big batch: got %d msgs, %v", len(ms), err)
		}
		// A frame's use is judged when the next one starts, so the buffer
		// survives smallFramesToRelease small frames and goes with the
		// one after.
		for i := 0; i < smallFramesToRelease+1; i++ {
			var err error
			if scalar {
				_, err = dec.Next()
			} else {
				_, err = dec.NextBatch()
			}
			if err != nil {
				t.Fatal(err)
			}
			if held := cap(dec.pending) > maxRetainedBatch; held != (i < smallFramesToRelease) {
				t.Fatalf("scalar=%v: after small frame %d the big buffer is held=%v (cap %d)", scalar, i, held, cap(dec.pending))
			}
		}
	}
}

// TestPendingBufferRetainedWhileUsed pins the other half: a stream of
// batches above maxRetainedBatch reuses one decode buffer instead of
// reallocating it on every frame.
func TestPendingBufferRetainedWhileUsed(t *testing.T) {
	frame, err := appendBatch(nil, MsgBatch, testBatch(2*maxRetainedBatch))
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(nil)
	dec := NewDecoder(src)
	next := func() {
		src.Reset(frame)
		if ms, err := dec.NextBatch(); err != nil || len(ms) != 2*maxRetainedBatch {
			t.Fatalf("got %d msgs, %v", len(ms), err)
		}
	}
	next() // sizes the buffer
	if allocs := testing.AllocsPerRun(20, next); allocs != 0 {
		t.Fatalf("steady %d-message frames allocate %v times per frame", 2*maxRetainedBatch, allocs)
	}
}

// TestDecoderRetainedBytesPerMessage bounds what a frame can make a
// serving connection hold: at most one 24-byte record per message the
// frame declared (a Msg would be 112), the wire bytes it was decoded
// from, and nothing once the existing small-frame rule has let go.
func TestDecoderRetainedBytesPerMessage(t *testing.T) {
	if size := reflect.TypeOf(Rec{}).Size(); size > 24 {
		t.Fatalf("a record is %d bytes, want at most 24", size)
	}
	ingest := DomainIngest(testD, hh.ExactEncoding(testM))
	big := testIngest(true, 1<<14, maxRetainedBatch) // six messages a user
	small := testIngest(true, 7, 1)
	stream := testFrame(t, MsgBatchAcked, big)
	for i := 0; i < smallFramesToRelease+1; i++ {
		stream = append(stream, testFrame(t, MsgBatchAcked, small)...)
	}
	dec := NewDecoder(bytes.NewReader(stream))
	f, err := dec.NextFrame(&ingest)
	if err != nil || len(f.Recs) != len(big) {
		t.Fatalf("big frame: %d records, %v", len(f.Recs), err)
	}
	if cap(f.Recs) > len(big) {
		t.Fatalf("a frame declaring %d messages left room for %d records", len(big), cap(f.Recs))
	}
	if cap(f.Wire) > len(big)*MaxMsgLen || cap(f.Reads) != 0 || cap(dec.pending) != 0 {
		t.Fatalf("beside its records the frame holds %d wire bytes, %d reads, %d Msgs", cap(f.Wire), cap(f.Reads), cap(dec.pending))
	}
	for i := 0; i < smallFramesToRelease+1; i++ {
		if f, err = dec.NextFrame(&ingest); err != nil || len(f.Recs) != len(small) {
			t.Fatalf("small frame %d: %d records, %v", i, len(f.Recs), err)
		}
		if held := cap(f.Recs) > maxRetainedBatch; held != (i < smallFramesToRelease) {
			t.Fatalf("after small frame %d the big record buffer is held=%v (cap %d)", i, held, cap(f.Recs))
		}
	}
	if cap(f.Wire) > smallReadBuffer {
		t.Fatalf("the record buffer went but %d wire bytes stayed", cap(f.Wire))
	}
}

// TestQueryConnKeepsSmallReadBuffer: only a batch frame that overruns
// the small read buffer moves a connection to the large one. A
// connection that sends scalar queries — however many it pipelines —
// never does; one ingest frame longer than the buffer does, once.
func TestQueryConnKeepsSmallReadBuffer(t *testing.T) {
	ingest := BoolIngest(testD)
	read := QueryV2(QueryPoint, testD/2, 0)
	query, err := appendMsg(nil, &read)
	if err != nil {
		t.Fatal(err)
	}
	const pipelined = smallReadBuffer // queries: several buffers' worth of bytes
	dec := NewDecoder(bytes.NewReader(bytes.Repeat(query, pipelined)))
	for n := 0; n < pipelined; n++ {
		if f, err := dec.NextFrame(&ingest); err != nil || len(f.Reads) != 1 || f.Reads[0].Msg != read {
			t.Fatalf("query %d: %+v, %v", n, f, err)
		}
	}
	if got := dec.r.Size(); got != smallReadBuffer {
		t.Fatalf("a query-only connection reads through %d bytes, want %d", got, smallReadBuffer)
	}

	big := testFrame(t, MsgBatchAcked, testIngest(false, 1<<14, 400)) // 2,400 messages, several buffers long
	dec = NewDecoder(bytes.NewReader(append(append(bytes.Repeat(query, 20), big...), big...)))
	for frames := 0; frames < 2; {
		f, err := dec.NextFrame(&ingest)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Recs) == 2400 {
			frames++
		}
	}
	if got := dec.r.Size(); got != largeReadBuffer {
		t.Fatalf("an ingest connection reads through %d bytes, want %d", got, largeReadBuffer)
	}
}

// TestAnswerConnGrowsForLongAnswers: a client connection keeps the small
// read buffer while its answers fit it, and moves to the large one at the
// first value block longer than the buffer — a 1,024-value Series — so
// that answer and every later one arrive in one read.
func TestAnswerConnGrowsForLongAnswers(t *testing.T) {
	frame := func(n int) []byte {
		b, err := appendAnswer(nil, AnswerFrame{Kind: QuerySeries, Values: make([]float64, n)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fits := smallReadBuffer / 8
	dec := NewDecoder(bytes.NewReader(append(bytes.Repeat(frame(fits), 3), frame(1024)...)))
	for _, want := range []int{fits, fits, fits, 1024} {
		if got := dec.r.Size(); want == 1024 && got != smallReadBuffer {
			t.Fatalf("after answers that fit, the connection reads through %d bytes, want %d", got, smallReadBuffer)
		}
		if a, err := dec.ReadAnswer(); err != nil || len(a.Values) != want {
			t.Fatalf("answer of %d values: %d, %v", want, len(a.Values), err)
		}
	}
	if got := dec.r.Size(); got != largeReadBuffer {
		t.Fatalf("after a 1,024-value answer the connection reads through %d bytes, want %d", got, largeReadBuffer)
	}
}

// TestDecodeRefusalText pins, byte for byte, the general decoder's
// short-message, overflow and bit-byte errors on each of the five ingest
// types — the decoder half of internal/transport's TestIngestRefusalText —
// and its refusal of a value too large for each narrowed Msg field.
// A changed string is a changed wire contract, not a test to update.
func TestDecodeRefusalText(t *testing.T) {
	// 2^63 is one past the largest int, 2^64−1 the largest uvarint.
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	max64 := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	cat := func(typ MsgType, fields ...[]byte) []byte {
		return append([]byte{byte(typ)}, bytes.Join(fields, nil)...)
	}
	one, zero, bad := []byte{1}, []byte{0}, []byte{2}
	seedBytes := binary.AppendUvarint(nil, 0x5eed5eed)
	// The narrowed Msg fields: 2^31 is one past an int32 item, bucket, k,
	// m, g or shard; 2^15 is one past an int16 order, and 2^15 − 1, which
	// a constructor clamps a larger order to, is refused too.
	over32, over16, top16 := binary.AppendUvarint(nil, 1<<31), binary.AppendUvarint(nil, 1<<15), binary.AppendUvarint(nil, 1<<15-1)
	v1 := []byte{queryWireVersion}
	decodes := []struct {
		b    []byte
		want string
	}{
		{cat(MsgHello, over, zero), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgHello, max64, one), "transport: user id 18446744073709551615 overflows"},
		{cat(MsgHello, one), "transport: short message"},
		{cat(MsgReport, over, zero, one, one), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgReport, one, zero, one, bad), "transport: invalid bit byte 2"},
		{cat(MsgReport, one, zero, one, []byte{0xff}), "transport: invalid bit byte 255"},
		{cat(MsgReport, one, zero, one), "transport: short message"},
		{cat(MsgDomainHello, over, one, zero), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgDomainHello, one, over, zero), "transport: item 9223372036854775808 overflows"},
		{cat(MsgDomainHello, over, max64, zero), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgDomainHello, one, one), "transport: short message"},
		{cat(MsgDomainReport, over, one, zero, one, one), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgDomainReport, one, max64, zero, one, one), "transport: item 18446744073709551615 overflows"},
		{cat(MsgDomainReport, one, one, zero, one, bad), "transport: invalid bit byte 2"},
		{cat(MsgDomainReport, over, over, zero, one, bad), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgDomainReport, one, one, zero, one), "transport: short message"},
		{cat(MsgHashedDomainHello, over, one, zero, seedBytes), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgHashedDomainHello, one, over, zero, seedBytes), "transport: bucket 9223372036854775808 overflows"},
		{cat(MsgHashedDomainHello, one, one, zero), "transport: short message"},
		{cat(MsgHashedDomainHello, one, one, zero, []byte{0x80}), "transport: short message"},
		{cat(MsgDomainHello, one, over32, zero), "transport: item 2147483648 overflows"},
		{cat(MsgDomainReport, one, over32, zero, one, one), "transport: item 2147483648 overflows"},
		{cat(MsgHashedDomainHello, one, over32, zero, seedBytes), "transport: bucket 2147483648 overflows"},
		{cat(MsgHello, one, over16), "transport: order 32768 overflows"},
		{cat(MsgHello, one, top16), "transport: order 32767 overflows"},
		{cat(MsgReport, one, over16, one, one), "transport: order 32768 overflows"},
		{cat(MsgDomainReport, one, one, top16, one, one), "transport: order 32767 overflows"},
		{cat(MsgDomainQuery, v1, []byte{byte(QueryTopK)}, one, one, zero, over32), "transport: domain query field overflows"},
		{cat(MsgDomainQuery, v1, []byte{byte(QueryPointItem)}, over32, one, zero, zero), "transport: domain query field overflows"},
		{cat(MsgHashedDomainSums, v1, over32, one, seedBytes), "transport: hashed-sums field overflows"},
		{cat(MsgHashedDomainSums, v1, one, over32, seedBytes), "transport: hashed-sums field overflows"},
		{cat(MsgShardSums, v1, over32), "transport: shard 2147483648 exceeds limit 65536"},
	}
	for _, c := range decodes {
		if _, err := decodeScalarInto(c.b, new(Msg)); err == nil || err.Error() != c.want {
			t.Errorf("decoding % x fails with %v, want %q", c.b, err, c.want)
		}
	}
}
