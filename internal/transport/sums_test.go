package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"testing"
	"testing/iotest"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/wire"
)

// testSumsFrame builds a valid frame for horizon d with deterministic
// contents.
func testSumsFrame(d int, scale float64, seed uint64) wire.SumsFrame {
	g := rng.New(seed, 13)
	f := wire.SumsFrame{D: d, Scale: scale, Counters: make([]int64, protocol.RawStride(d))}
	_, perOrder, sums := wire.RawSums(f).Row(0)
	f.Counters[0] = int64(g.IntN(1000))
	for h := range perOrder {
		perOrder[h] = int64(g.IntN(100))
	}
	for i := range sums {
		sums[i] = int64(g.IntN(2001)) - 1000 // sums go negative
	}
	return f
}

// encodeSumsBytes encodes one frame, panicking on error (the callers
// pass known-valid frames).
func encodeSumsBytes(f wire.SumsFrame) []byte {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	if err := enc.EncodeSums(f); err != nil {
		panic(err)
	}
	if err := enc.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func framesEqual(a, b wire.SumsFrame) bool { return wire.RawSums(a).Equal(wire.RawSums(b)) }

// TestSumsRoundTrip checks frames of several horizons survive the wire
// bit-exactly, back to back on one stream.
func TestSumsRoundTrip(t *testing.T) {
	frames := []wire.SumsFrame{
		testSumsFrame(1, 0.5, 1),
		testSumsFrame(16, 2.25, 2),
		testSumsFrame(1024, 100, 3),
		{D: 4, Scale: 1, Counters: make([]int64, protocol.RawStride(4))}, // all zero
	}
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	for _, f := range frames {
		if err := enc.EncodeSums(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(&buf)
	for i, want := range frames {
		got, err := dec.ReadSums()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !framesEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := dec.ReadSums(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestSumsMergeMatchesSerial checks the whole scatter/gather identity
// in miniature: reports split across two accumulators, shipped as sums
// frames, merged into one server — estimates bit-for-bit equal to a
// serial server fed everything.
func TestSumsMergeMatchesSerial(t *testing.T) {
	const d, scale = 64, 2.5
	accs := []*protocol.Sharded{
		protocol.NewSharded(d, scale, 2),
		protocol.NewSharded(d, scale, 3),
	}
	serial := protocol.NewServer(d, scale)
	g := rng.New(5, 6)
	for i := 0; i < 4000; i++ {
		h := g.IntN(dyadic.NumOrders(d))
		r := protocol.Report{User: i, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: 1}
		if g.Bernoulli(0.5) {
			r.Bit = -1
		}
		ingestAt(accs[i%2], i, r)
		serial.Ingest(r)
		if i%7 == 0 {
			registerAt(accs[i%2], i, h)
			serial.Register(h)
		}
	}
	merged := protocol.NewServer(d, scale)
	for _, acc := range accs {
		// Through the wire, not just in process.
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.EncodeSums(SumsFromSharded(acc)); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := wire.NewDecoder(&buf).ReadSums()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.MergeInto(merged); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := merged.Users(), serial.Users(); got != want {
		t.Fatalf("merged users %d, want %d", got, want)
	}
	gotS, wantS := merged.EstimateSeries(), serial.EstimateSeries()
	for i := range wantS {
		if gotS[i] != wantS[i] {
			t.Fatalf("series value %d: merged %v, serial %v", i, gotS[i], wantS[i])
		}
	}
	for tt := 1; tt <= d; tt++ {
		if merged.EstimateAt(tt) != serial.EstimateAt(tt) {
			t.Fatalf("estimate at %d differs", tt)
		}
	}
	if merged.EstimateChange(5, 40) != serial.EstimateChange(5, 40) {
		t.Fatal("change estimate differs")
	}
}

// TestSumsMergeMismatch checks MergeInto refuses a mismatched server.
func TestSumsMergeMismatch(t *testing.T) {
	f := testSumsFrame(16, 2, 7)
	if err := f.MergeInto(protocol.NewServer(32, 2)); err == nil {
		t.Error("merged into a server with the wrong horizon")
	}
	if err := f.MergeInto(protocol.NewServer(16, 3)); err == nil {
		t.Error("merged into a server with the wrong scale")
	}
	if err := f.MergeInto(protocol.NewServer(16, 2)); err != nil {
		t.Error(err)
	}
}

// TestSumsEncodeValidation checks the encoder rejects malformed frames.
func TestSumsEncodeValidation(t *testing.T) {
	enc := wire.NewEncoder(&bytes.Buffer{})
	good := testSumsFrame(16, 2, 9)
	for name, f := range map[string]func(wire.SumsFrame) wire.SumsFrame{
		"horizon not a power of two": func(f wire.SumsFrame) wire.SumsFrame { f.D = 17; return f },
		"horizon over the limit":     func(f wire.SumsFrame) wire.SumsFrame { f.D = wire.MaxSumsD * 2; return f },
		"a row parameter":            func(f wire.SumsFrame) wire.SumsFrame { f.M = 2; return f },
		"negative user count":        func(f wire.SumsFrame) wire.SumsFrame { f.Counters = append([]int64{-1}, f.Counters[1:]...); return f },
		"negative per-order count": func(f wire.SumsFrame) wire.SumsFrame {
			f.Counters = append([]int64{0, 0, -1}, f.Counters[3:]...)
			return f
		},
		"short counters": func(f wire.SumsFrame) wire.SumsFrame { f.Counters = f.Counters[:5]; return f },
	} {
		if err := enc.EncodeSums(f(good)); err == nil {
			t.Errorf("encoder accepted a frame with %s", name)
		}
	}
	if err := enc.EncodeSums(good); err != nil {
		t.Error(err)
	}
}

// TestSumsDecodeTruncated checks every proper prefix of a valid frame
// fails with a descriptive error, never a panic or a bogus frame.
func TestSumsDecodeTruncated(t *testing.T) {
	raw := encodeSumsBytes(testSumsFrame(16, 2.5, 11))
	for cut := 0; cut < len(raw); cut++ {
		_, err := wire.NewDecoder(bytes.NewReader(raw[:cut])).ReadSums()
		if err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", cut, len(raw))
		}
	}
}

// TestSumsDecodeCorrupt checks targeted corruptions are rejected.
func TestSumsDecodeCorrupt(t *testing.T) {
	raw := encodeSumsBytes(testSumsFrame(16, 2.5, 12))
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), raw...)
		mutate(b)
		_, err := wire.NewDecoder(bytes.NewReader(b)).ReadSums()
		return err
	}
	if err := corrupt(func(b []byte) { b[0] = byte(wire.MsgAnswer) }); err == nil {
		t.Error("accepted a non-sums frame type")
	}
	if err := corrupt(func(b []byte) { b[1] = 99 }); err == nil {
		t.Error("accepted an unknown version")
	}
	if err := corrupt(func(b []byte) { b[2] = 17 }); err == nil {
		t.Error("accepted a non-power-of-two horizon")
	}
	// A huge declared horizon must be rejected before allocation.
	huge := append([]byte{byte(wire.MsgSumsFrame), queryWireVersion}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	if _, err := wire.NewDecoder(bytes.NewReader(huge)).ReadSums(); err == nil {
		t.Error("accepted an overflowing horizon")
	}
	// Negative user count on the wire.
	neg := []byte{byte(wire.MsgSumsFrame), queryWireVersion, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1 /* varint -1 */}
	if _, err := wire.NewDecoder(bytes.NewReader(neg)).ReadSums(); err == nil {
		t.Error("accepted a negative user count")
	}
}

// TestIngestServerAnswersSums checks the raw-sums path over real TCP:
// standalone requests and one embedded in a batch (where it fences the
// reports before it), with the response matching the live accumulator.
func TestIngestServerAnswersSums(t *testing.T) {
	const d, scale = 32, 2.0
	acc := protocol.NewSharded(d, scale, 2)
	srv := NewIngestServer(NewShardedCollector(acc))
	srv.ErrorLog = func(err error) { t.Error(err) }
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	// A batch mixing ingestion and a sums request: the response must
	// reflect the messages before it in the batch.
	ms := []wire.Msg{
		wire.Hello(1, 3),
		wire.FromReport(protocol.Report{User: 1, Order: 0, J: 5, Bit: 1}),
		wire.FromReport(protocol.Report{User: 1, Order: 1, J: 2, Bit: -1}),
		wire.Sums(),
	}
	if err := enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := dec.ReadSums()
	if err != nil {
		t.Fatal(err)
	}
	users, perOrder, _ := wire.RawSums(f).Row(0)
	if f.D != d || f.Scale != scale || users != 1 {
		t.Fatalf("bad frame header %+v", f)
	}
	if perOrder[3] != 1 {
		t.Fatalf("per-order counts %v, want order 3 = 1", perOrder)
	}
	want := protocol.NewServer(d, scale)
	want.Register(3)
	want.Ingest(protocol.Report{User: 1, Order: 0, J: 5, Bit: 1})
	want.Ingest(protocol.Report{User: 1, Order: 1, J: 2, Bit: -1})
	merged := protocol.NewServer(d, scale)
	if err := f.MergeInto(merged); err != nil {
		t.Fatal(err)
	}
	for tt := 1; tt <= d; tt++ {
		if merged.EstimateAt(tt) != want.EstimateAt(tt) {
			t.Fatalf("estimate at %d differs after merge", tt)
		}
	}
	// A standalone request on the same stream.
	if err := enc.Encode(wire.Sums()); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if f2, err := dec.ReadSums(); err != nil {
		t.Fatal(err)
	} else if !framesEqual(f, f2) {
		t.Fatal("standalone sums differ from in-batch sums")
	}
	conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// FuzzSumsDecode feeds arbitrary bytes to ReadSums: it must return a
// frame or a descriptive error, never panic, and any successfully
// decoded frame must satisfy the structural invariants.
func FuzzSumsDecode(f *testing.F) {
	f.Add(encodeSumsBytes(testSumsFrame(16, 2.5, 21)))
	f.Add(encodeSumsBytes(testSumsFrame(1, 1, 22)))
	f.Add([]byte{byte(wire.MsgSumsFrame), queryWireVersion, 16})
	f.Add([]byte{byte(wire.MsgSumsFrame), 99})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := wire.NewDecoder(bytes.NewReader(data)).ReadSums()
		if err != nil {
			return // EOF or any descriptive error is fine
		}
		if !dyadic.IsPow2(frame.D) || frame.D > wire.MaxSumsD {
			t.Fatalf("decoded invalid horizon %d", frame.D)
		}
		// A version-2 frame carries the columns of its scope's cover only.
		sc := frame.Scope
		if sc != (wire.Scope{}) && (sc.L < 1 || sc.R < sc.L || sc.R > frame.D) {
			t.Fatalf("decoded scope [%d..%d] for d=%d", sc.L, sc.R, frame.D)
		}
		if len(frame.Counters) != protocol.ScopedStride(frame.D, sc.L, sc.R) {
			t.Fatalf("decoded %d counters for d=%d scope [%d..%d]", len(frame.Counters), frame.D, sc.L, sc.R)
		}
		users, perOrder, _ := wire.RawSums(frame).Row(0)
		if users < 0 {
			t.Fatalf("decoded negative user count %d", users)
		}
		for h, c := range perOrder {
			if c < 0 {
				t.Fatalf("decoded negative count %d at order %d", c, h)
			}
		}
	})
}

// FuzzSumsRoundTrip checks any structurally valid frame survives the
// wire bit-exactly.
func FuzzSumsRoundTrip(f *testing.F) {
	f.Add(uint8(4), 2.5, uint64(1))
	f.Add(uint8(0), 1.0, uint64(99))
	f.Add(uint8(10), 100.0, uint64(12345))
	f.Fuzz(func(t *testing.T, logd uint8, scale float64, seed uint64) {
		d := 1 << (logd % 11)
		want := testSumsFrame(d, scale, seed)
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.EncodeSums(want); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := wire.NewDecoder(&buf).ReadSums()
		if err != nil {
			t.Fatal(err)
		}
		// NaN scales round-trip by bits but compare unequal; skip the
		// equality check for them.
		if want.Scale == want.Scale && !framesEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

// FuzzReadVarintsDifferential holds the bulk counter decoder to the
// per-value decoder it replaced: on arbitrary bytes, ReadVarints and n
// calls of binary.ReadVarint must produce the same values and leave the
// stream at the same byte, or both fail. The bulk side runs over three
// kinds of window — everything buffered, the smallest buffer bufio
// offers (so multi-byte values straddle refills), and one byte per
// read.
func FuzzReadVarintsDifferential(f *testing.F) {
	for _, frame := range goldenSumsFrames(f) {
		f.Add(frame[11:], uint16(36)) // counters only (the longer header's length)
	}
	f.Add(binary.AppendVarint(binary.AppendVarint(nil, math.MaxInt64), math.MinInt64), uint16(2))          // 10-byte values
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0x81, 0x80, 0x00}, uint16(2)) // overlong encodings
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, uint16(1))                   // overflows in the 10th byte
	f.Add([]byte{0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(2))       // overflows past it
	f.Add(append(bytes.Repeat([]byte{0x05}, 14), 0xe5, 0x8e, 0x26, 0x03), uint16(16))                      // value across a 16-byte refill
	f.Add([]byte{0x01, 0x80}, uint16(2))                                                                   // cut inside a value
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		count := int(n % 512)
		ref := bufio.NewReader(bytes.NewReader(data))
		want := make([]int64, count)
		var wantErr error
		for i := range want {
			if want[i], wantErr = binary.ReadVarint(ref); wantErr != nil {
				break
			}
		}
		wantRest, _ := io.ReadAll(ref)
		for name, r := range map[string]*bufio.Reader{
			"buffered": bufio.NewReader(bytes.NewReader(data)),
			"min":      bufio.NewReaderSize(bytes.NewReader(data), 16),
			"one-byte": bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data))),
		} {
			got := make([]int64, count)
			err := wire.ReadVarints(r, got)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: bulk error %v, per-value error %v", name, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: bulk %v, per-value %v", name, got, want)
			}
			if rest, _ := io.ReadAll(r); !bytes.Equal(rest, wantRest) {
				t.Fatalf("%s: bulk decode left %d bytes, per-value %d", name, len(rest), len(wantRest))
			}
		}
	})
}

// TestSumsPathAllocs pins the flat path's allocation profile: serving a
// frame costs one allocation (a row buffer) and decoding one (the
// matrix), whatever the row count — and what is served is what
// exporting the matrix and encoding it would have written.
func TestSumsPathAllocs(t *testing.T) {
	const d = 16
	for _, m := range []int{4, 256} {
		mode := DomainMode(d, hh.ExactEncoding(m), 2)
		st := mode.NewState(2)
		st.Apply(0, []wire.Rec{{User: 1, Item: uint32(m - 1), Order: 2}, {User: 1, Item: uint32(m - 1), Order: 2, J: 3, Bit: -1}})
		var raw bytes.Buffer
		enc := wire.NewEncoder(&raw)
		var sc AnswerScratch
		export := func() {
			raw.Reset()
			if _, _, err := st.Answer(mode.SumsRequest(), enc, &sc); err != nil {
				t.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		export() // sizes the encoder's buffer
		var viaMatrix bytes.Buffer
		enc2 := wire.NewEncoder(&viaMatrix)
		if err := enc2.EncodeDomainSums(st.Sums(wire.Scope{})); err != nil {
			t.Fatal(err)
		}
		if err := enc2.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw.Bytes(), viaMatrix.Bytes()) {
			t.Fatalf("m=%d: the served frame differs from the encoded export", m)
		}
		if allocs := testing.AllocsPerRun(10, export); allocs != 1 {
			t.Errorf("m=%d: exporting and encoding a frame allocates %v times, want 1", m, allocs)
		}
		frame := append([]byte(nil), raw.Bytes()...)
		src := bytes.NewReader(nil)
		dec := wire.NewDecoder(src)
		allocs := testing.AllocsPerRun(10, func() {
			src.Reset(frame)
			if _, err := mode.ReadSums(dec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("m=%d: decoding a frame allocates %v times, want 1", m, allocs)
		}
	}
}
