package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"rtf/internal/membership"
	"rtf/internal/wire"
)

// FuzzDecoderRobust feeds arbitrary bytes to the decoder: it must return
// messages or errors, never panic, and every successfully decoded
// message must satisfy its type's wire invariants (checkDecoded). Batch
// frames are exercised through both the unbatching Next path and the
// batch-granular NextBatch path.
func FuzzDecoderRobust(f *testing.F) {
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{2, 0, 0, 1, 1})
	f.Add([]byte{2, 255, 255, 255, 255, 15, 3, 42, 0})
	f.Add([]byte{})
	f.Add([]byte{99})
	f.Add([]byte{4, 17})                            // retired v1 query: refused
	f.Add([]byte{5, 17, 0, 0, 0, 0, 0, 0, 240, 63}) // retired v1 estimate: refused
	f.Add([]byte{6, 1, 1, 17, 0})                   // v2 point query
	f.Add([]byte{3, 0})                             // empty batch
	f.Add([]byte{3, 2, 1, 0, 0, 2, 0, 0, 1, 1})     // batch: hello + report
	f.Add([]byte{3, 1, 3, 0})                       // nested batch (invalid)
	f.Add([]byte{3, 255, 255, 255, 255, 127})       // oversized length prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, data, func(m wire.Msg) { checkDecoded(t, m) })
	})
}

// fuzzDecode drives arbitrary bytes through both Msg views of the
// decoder — Next, then NextBatch on a fresh decoder — and hands every
// message either returns to check. Any error ends a view: EOF and a
// descriptive error are both fine.
func fuzzDecode(t *testing.T, data []byte, check func(wire.Msg)) {
	dec := wire.NewDecoder(bytes.NewReader(data))
	for i := 0; i < 1000; i++ {
		m, err := dec.Next()
		if err != nil {
			break
		}
		check(m)
	}
	dec = wire.NewDecoder(bytes.NewReader(data))
	for total := 0; total < 100000; {
		ms, err := dec.NextBatch()
		if err != nil {
			return
		}
		if len(ms) == 0 {
			t.Fatal("NextBatch returned an empty slice without error")
		}
		for _, m := range ms {
			check(m)
		}
		total += len(ms)
	}
}

// checkDecoded is the message fuzzers' one oracle: a message Next or
// NextBatch returned without error has a type Next can return — every
// scalar type the general decoder accepts, and the MsgView and
// MsgShardTransfer markers — and each field its decoder bounds is in
// range: a ±1 bit on a report, non-negative user, item or bucket,
// query fields and counts, a shard within membership.MaxShards, and a
// sums scope that is either none or a range inside [1..MaxSumsD].
func checkDecoded(t *testing.T, m wire.Msg) {
	t.Helper()
	scope := m.L == 0 && m.R == 0 || 1 <= m.L && m.L <= m.R && m.R <= wire.MaxSumsD
	var ok bool
	switch m.Type {
	case wire.MsgHello, wire.MsgDomainHello, wire.MsgHashedDomainHello:
		ok = m.User >= 0 && m.Item >= 0
	case wire.MsgReport, wire.MsgDomainReport:
		ok = m.User >= 0 && m.Item >= 0 && (m.Bit == 1 || m.Bit == -1)
	case wire.MsgQueryV2:
		ok = m.L >= 0 && m.R >= 0
	case wire.MsgDomainQuery:
		ok = m.Item >= 0 && m.L >= 0 && m.R >= 0 && m.K >= 0
	case wire.MsgSums, wire.MsgDomainSums:
		ok = scope
	case wire.MsgHashedDomainSums:
		ok = m.Item >= 0 && m.K >= 0 && scope
	case wire.MsgShardSums, wire.MsgShardTransfer:
		ok = m.Shard >= 0 && m.Shard <= membership.MaxShards && scope
	case wire.MsgView:
		ok = true
	default:
		t.Fatalf("decoded type %d without error: %+v", m.Type, m)
	}
	if !ok {
		t.Fatalf("decoded %+v: a field is out of range for its type", m)
	}
}

// FuzzEncodeDecodeRoundTrip checks that any valid scalar message
// survives the wire format bit-exactly.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint8(0), uint32(1), true, uint8(0), uint32(0), 0.0)
	f.Add(uint32(1<<31), uint8(30), uint32(1<<30), false, uint8(1), uint32(7), -3.5)
	f.Add(uint32(1), uint8(2), uint32(3), true, uint8(2), uint32(1024), math.Inf(1))
	f.Add(uint32(1), uint8(2), uint32(3), true, uint8(3), uint32(12), 0.125)
	f.Fuzz(func(t *testing.T, user uint32, order uint8, j uint32, bit bool, kind uint8, tt uint32, val float64) {
		var m wire.Msg
		switch kind % 4 {
		case 0:
			m = wire.Hello(int(user), int(order))
		case 1:
			b := int8(1)
			if !bit {
				b = -1
			}
			m = wire.Msg{Type: wire.MsgReport, User: int(user), Order: int(order), J: int(j), Bit: b}
		case 2:
			m = pointQ(int(tt))
		case 3:
			// The slot of the retired v1 estimate; val stays in the
			// signature so old corpus entries still parse.
			_ = val
			m = wire.QueryV2(wire.QueryChange, int(tt), int(tt)+int(j%1024))
		}
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := wire.NewDecoder(&buf).Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	})
}

// FuzzBatchRoundTrip builds a batch from fuzz-chosen parameters, frames
// it together with a leading and trailing scalar message, and checks the
// decode reproduces everything exactly.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint64(1))
	f.Add(uint16(5), uint64(99))
	f.Add(uint16(300), uint64(12345))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64) {
		ms := make([]wire.Msg, int(n)%512)
		s := seed
		for i := range ms {
			s = s*6364136223846793005 + 1442695040888963407
			if s%3 == 0 {
				ms[i] = wire.Hello(int(s%1000), int(s%32))
			} else {
				b := int8(1)
				if s%2 == 0 {
					b = -1
				}
				ms[i] = wire.Msg{Type: wire.MsgReport, User: int(s % 1000), Order: int(s % 32), J: int(s%4096) + 1, Bit: b}
			}
		}
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.Encode(pointQ(3)); err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeBatch(ms); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(wire.Sums()); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := wire.NewDecoder(&buf)
		want := append(append([]wire.Msg{pointQ(3)}, ms...), wire.Sums())
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
	})
}
