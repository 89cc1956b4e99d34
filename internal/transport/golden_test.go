package transport

import (
	"bytes"
	"encoding/hex"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// goldenMsgs is a fixed mix of every pre-hashed wire message type that
// is still served (the pins also held the v1 query 04 09, cut out byte
// for byte when the type was retired; TestV1QueryRefused has it now). The
// byte pins below were captured before the DomainEncoding refactor:
// with the exact encoding, every wire byte is part of the compatibility
// surface, and a deployed fleet of clients and gateways must keep
// interoperating across the upgrade.
func goldenMsgs() []wire.Msg {
	return []wire.Msg{
		wire.Hello(7, 3),
		wire.FromReport(protocol.Report{User: 7, Order: 3, J: 2, Bit: 1}),
		wire.FromReport(protocol.Report{User: 7, Order: 3, J: 5, Bit: -1}),
		wire.QueryV2(wire.QuerySeries, 1, 8),
		wire.Sums(),
		wire.DomainHello(11, 5, 2),
		wire.FromDomainReport(5, protocol.Report{User: 11, Order: 2, J: 3, Bit: 1}),
		wire.DomainQuery(wire.QueryPointItem, 5, 7, 0, 0),
		wire.DomainQuery(wire.QueryTopK, 0, 8, 0, 3),
		wire.DomainSums(),
	}
}

const (
	goldenScalarHex = "01070302070302010207030500060103010808010a0b05020b0b050203010c0105050700000c0107000800030e01"
	goldenBatchHex  = "030a01070302070302010207030500060103010808010a0b05020b0b050203010c0105050700000c0107000800030e01"
)

// TestWireGoldenBytes pins the scalar and batch encodings of every
// pre-hashed message type to bytes captured before the DomainEncoding
// refactor. A diff here is a wire compatibility break, not a test to
// update casually.
func TestWireGoldenBytes(t *testing.T) {
	msgs := goldenMsgs()

	var scalar bytes.Buffer
	enc := wire.NewEncoder(&scalar)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(scalar.Bytes()); got != goldenScalarHex {
		t.Errorf("scalar stream changed:\n got  %s\n want %s", got, goldenScalarHex)
	}

	var batch bytes.Buffer
	enc = wire.NewEncoder(&batch)
	if err := enc.EncodeBatch(msgs); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(batch.Bytes()); got != goldenBatchHex {
		t.Errorf("batch frame changed:\n got  %s\n want %s", got, goldenBatchHex)
	}

	// And the pinned bytes decode back to the original messages, scalar
	// and batch alike.
	raw, err := hex.DecodeString(goldenScalarHex)
	if err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(bytes.NewReader(raw))
	for i, w := range msgs {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got != w {
			t.Fatalf("msg %d: decoded %+v, want %+v", i, got, w)
		}
	}
	raw, err = hex.DecodeString(goldenBatchHex)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := wire.NewDecoder(bytes.NewReader(raw)).NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(msgs) {
		t.Fatalf("batch decoded %d messages, want %d", len(ms), len(msgs))
	}
	for i := range ms {
		if ms[i] != msgs[i] {
			t.Fatalf("batch msg %d: decoded %+v, want %+v", i, ms[i], msgs[i])
		}
	}
}

// Sums-frame bytes captured at the commit before the raw-sums path went
// flat, from the same counters the sums fuzzers are seeded with: the
// frame a gateway and its backends exchange is part of the wire
// surface, and the in-memory layout behind it is not.
const (
	goldenSumsHex       = "0901100000000000000440d0050814066416a50f9e088709830181058a08b603f004e20d39e202338c0abf08e10990039f0cbf0ce70bc6018203eb0b8409c403ec09e30ea90e9506c9039a07c80c"
	goldenDomainSumsHex = "0f0108030000000000000040020200000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000"
)

// goldenSumsFrames returns the two pinned frames' wire bytes, Boolean
// then domain, freshly encoded.
func goldenSumsFrames(t testing.TB) [2][]byte {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	if err := enc.EncodeDomainSums(DomainSumsFromServer(testFuzzDomainServer())); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return [2][]byte{encodeSumsBytes(testSumsFrame(16, 2.5, 21)), buf.Bytes()}
}

// TestSumsGoldenBytes pins both sums frames byte for byte, and checks
// the pinned bytes decode to counters that encode back to themselves.
func TestSumsGoldenBytes(t *testing.T) {
	frames := goldenSumsFrames(t)
	for i, want := range []string{goldenSumsHex, goldenDomainSumsHex} {
		if got := hex.EncodeToString(frames[i]); got != want {
			t.Errorf("sums frame %d changed:\n got  %s\n want %s", i, got, want)
		}
		raw, err := hex.DecodeString(want)
		if err != nil {
			t.Fatal(err)
		}
		mode := Mode(BoolMode(16, 2.5))
		if i == 1 {
			mode = DomainMode(8, hh.ExactEncoding(3), 2)
		}
		f, err := mode.ReadSums(wire.NewDecoder(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("sums frame %d: %v", i, err)
		}
		var back bytes.Buffer
		enc := wire.NewEncoder(&back)
		if err := mode.EncodeSums(enc, f); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), raw) {
			t.Errorf("sums frame %d does not re-encode to its pinned bytes", i)
		}
	}
}
