package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/protocol"
)

// FuzzDomainReportDecode feeds arbitrary bytes to the decoder with the
// domain ingest frames in scope: it must return messages or errors,
// never panic, and every successfully decoded message must satisfy its
// type's wire invariants (checkDecoded: non-negative ids and items, ±1
// bits, ...). Batches are exercised through both Next and NextBatch.
func FuzzDomainReportDecode(f *testing.F) {
	seed := func(ms ...Msg) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		for _, m := range ms {
			if err := enc.Encode(m); err != nil {
				f.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	batch := func(ms ...Msg) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.EncodeBatch(ms); err != nil {
			f.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(DomainHello(1, 2, 3)))
	f.Add(seed(FromDomainReport(2, protocol.Report{User: 9, Order: 1, J: 4, Bit: 1})))
	f.Add(seed(FromDomainReport(0, protocol.Report{User: 0, Order: 0, J: 1, Bit: -1})))
	f.Add(batch(DomainHello(1, 0, 0), FromDomainReport(0, protocol.Report{User: 1, Order: 0, J: 1, Bit: 1})))
	f.Add([]byte{byte(MsgDomainHello), 1, 2})                                              // truncated hello
	f.Add([]byte{byte(MsgDomainReport), 1, 2, 3, 4, 250})                                  // invalid bit byte
	f.Add([]byte{byte(MsgDomainReport), 255, 255, 255, 255, 255, 255, 255, 255, 255, 255}) // overlong varint
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, data, func(m Msg) { checkDecoded(t, m) })
	})
}

// FuzzDomainQueryDecode feeds arbitrary bytes to the three domain query
// read paths — the scalar domain-query decoder, ReadDomainAnswer and
// ReadDomainSums — which must fail cleanly on garbage, never panic, and
// uphold their invariants on success (bounded lengths, non-negative
// counts).
func FuzzDomainQueryDecode(f *testing.F) {
	encode := func(m Msg) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.Encode(m); err != nil {
			f.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(encode(DomainQuery(QueryPointItem, 3, 17, 0, 0)))
	f.Add(encode(DomainQuery(QueryTopK, 0, 9, 0, 5)))
	f.Add(encode(DomainSums()))
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.EncodeDomainAnswer(DomainAnswerFrame{Kind: QueryTopK, L: 2, K: 2, Items: []int{1, 0}, Values: []float64{5, 3}}); err != nil {
		f.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	buf.Reset()
	ds := testFuzzDomainServer()
	if err := enc.EncodeDomainSums(DomainSumsFromServer(ds)); err != nil {
		f.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	f.Add([]byte{byte(MsgDomainAnswer), 1, byte(QueryTopK)})       // truncated answer
	f.Add([]byte{byte(MsgDomainSumsFrame), 1, 255, 255, 255, 127}) // huge horizon
	f.Add([]byte{byte(MsgDomainQuery), 9})                         // bad version
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := NewDecoder(bytes.NewReader(data)).Next(); err == nil && m.Type == MsgDomainQuery {
			if m.Item < 0 || m.L < 0 || m.R < 0 || m.K < 0 {
				t.Fatalf("decoded domain query with negative field: %+v", m)
			}
		}
		if a, err := NewDecoder(bytes.NewReader(data)).ReadDomainAnswer(); err == nil {
			if len(a.Items) > MaxAnswerLen || len(a.Values) > MaxAnswerLen {
				t.Fatalf("decoded oversized domain answer: %d/%d", len(a.Items), len(a.Values))
			}
			for _, it := range a.Items {
				if it < 0 {
					t.Fatalf("decoded negative item %d", it)
				}
			}
		} else if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && err.Error() == "" {
			t.Fatal("empty error message")
		}
		if s, err := NewDecoder(bytes.NewReader(data)).ReadDomainSums(); err == nil {
			if sc := s.Scope; sc != (Scope{}) && (sc.L < 1 || sc.R < sc.L || sc.R > s.D) {
				t.Fatalf("decoded domain sums scope [%d..%d] for d=%d", sc.L, sc.R, s.D)
			}
			if s.M < 2 || s.M > MaxDomainM || len(s.Counters) != s.M*protocol.ScopedStride(s.D, s.Scope.L, s.Scope.R) {
				t.Fatalf("decoded invalid domain sums dims: m=%d counters=%d", s.M, len(s.Counters))
			}
			for x := 0; x < s.M; x++ {
				if users, _, _ := s.Row(x); users < 0 {
					t.Fatalf("decoded negative user count %d", users)
				}
			}
		}
	})
}

// testFuzzDomainServer builds a tiny filled server for fuzz seeds.
func testFuzzDomainServer() *hh.DomainServer {
	ds := hh.NewDomainServer(8, 3, 2, 1)
	ds.Register(0, 0, 0)
	ds.Ingest(0, 0, protocol.Report{User: 1, Order: 0, J: 1, Bit: 1})
	ds.Ingest(0, 2, protocol.Report{User: 2, Order: 1, J: 2, Bit: -1})
	return ds
}
