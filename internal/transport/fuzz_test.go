package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzDecoderRobust feeds arbitrary bytes to the decoder: it must return
// messages or errors, never panic, and every successfully decoded report
// must satisfy the wire invariants. Batch frames are exercised through
// both the unbatching Next path and the batch-granular NextBatch path.
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
		check := func(m Msg) {
			switch m.Type {
			case MsgHello, MsgQueryV2:
				// ok
			case MsgReport:
				if m.Bit != 1 && m.Bit != -1 {
					t.Fatalf("decoded report with bit %d", m.Bit)
				}
			default:
				t.Fatalf("decoded unknown type %d without error", m.Type)
			}
		}
		dec := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			m, err := dec.Next()
			if err != nil {
				break // EOF or any descriptive error is fine
			}
			check(m)
		}
		dec = NewDecoder(bytes.NewReader(data))
		total := 0
		for total < 100000 {
			ms, err := dec.NextBatch()
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				return // malformed input: any descriptive error is fine
			}
			if len(ms) == 0 {
				t.Fatal("NextBatch returned an empty slice without error")
			}
			for _, m := range ms {
				check(m)
			}
			total += len(ms)
		}
	})
}

// FuzzEncodeDecodeRoundTrip checks that any valid scalar message
// survives the wire format bit-exactly.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint8(0), uint32(1), true, uint8(0), uint32(0), 0.0)
	f.Add(uint32(1<<31), uint8(30), uint32(1<<30), false, uint8(1), uint32(7), -3.5)
	f.Add(uint32(1), uint8(2), uint32(3), true, uint8(2), uint32(1024), math.Inf(1))
	f.Add(uint32(1), uint8(2), uint32(3), true, uint8(3), uint32(12), 0.125)
	f.Fuzz(func(t *testing.T, user uint32, order uint8, j uint32, bit bool, kind uint8, tt uint32, val float64) {
		var m Msg
		switch kind % 4 {
		case 0:
			m = Hello(int(user), int(order))
		case 1:
			b := int8(1)
			if !bit {
				b = -1
			}
			m = Msg{Type: MsgReport, User: int(user), Order: int(order), J: int(j), Bit: b}
		case 2:
			m = pointQ(int(tt))
		case 3:
			// The slot of the retired v1 estimate; val stays in the
			// signature so old corpus entries still parse.
			_ = val
			m = QueryV2(QueryChange, int(tt), int(tt)+int(j%1024))
		}
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := NewDecoder(&buf).Next()
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
		ms := make([]Msg, int(n)%512)
		s := seed
		for i := range ms {
			s = s*6364136223846793005 + 1442695040888963407
			if s%3 == 0 {
				ms[i] = Hello(int(s%1000), int(s%32))
			} else {
				b := int8(1)
				if s%2 == 0 {
					b = -1
				}
				ms[i] = Msg{Type: MsgReport, User: int(s % 1000), Order: int(s % 32), J: int(s%4096) + 1, Bit: b}
			}
		}
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.Encode(pointQ(3)); err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeBatch(ms); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(Sums()); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(&buf)
		want := append(append([]Msg{pointQ(3)}, ms...), Sums())
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
