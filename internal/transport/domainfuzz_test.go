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

// FuzzDomainRead fuzzes the read guard the domain answer path relies
// on: AnswerDomainQueryInto does not validate, the frame loop's
// ValidateRead does, so under both encodings every read frame the
// mode's ValidateRead accepts must be answered by a live state without
// a panic or an error, and the answer must decode — a domain answer
// echoing the query's shape, or the mode's sums frame.
func FuzzDomainRead(f *testing.F) {
	const d = 8
	type live struct {
		mode Mode
		st   State
	}
	var states []live
	for _, enc := range []hh.DomainEncoding{hh.ExactEncoding(5), hh.LolohaEncoding(3000, 4, 0x5eed)} {
		mode := DomainMode(d, enc, 2)
		col := NewCollector(mode, 2)
		hello := DomainHello
		if enc.Hashed() {
			hello = func(user, row, order int) Msg { return HashedDomainHello(user, row, order, enc.Seed) }
		}
		for u := 0; u < 12; u++ {
			row, order := u%enc.Rows(), u%4
			bit := int8(1 - 2*(u%3%2))
			if err := col.SendBatch(u%2, []Msg{
				hello(u, row, order),
				FromDomainReport(row, protocol.Report{User: u, Order: order, J: 1 + u%(d>>uint(order)), Bit: bit}),
			}); err != nil {
				f.Fatal(err)
			}
		}
		states = append(states, live{mode, col.st})
	}
	for _, m := range []Msg{
		DomainQuery(QueryPointItem, 4, 3, 0, 0),
		DomainQuery(QueryPointItem, 2999, d, 0, 0),
		DomainQuery(QuerySeriesItem, 1, 0, 0, 0),
		DomainQuery(QueryTopK, 0, d, 0, 3),
		DomainQuery(QueryTopK, 0, 1, 0, MaxAnswerLen),
		DomainQuery(QueryTopK, 0, 1, 0, MaxAnswerLen+1),
		DomainSums(),
		{Type: MsgDomainSums, L: 2, R: 5},
		HashedDomainSums(3000, 4, 0x5eed),
		{Type: MsgHashedDomainSums, Item: 3000, K: 4, Seed: 0x5eed, L: 1, R: d},
	} {
		b, err := appendMsg(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Msg
		if _, err := decodeScalarInto(data, &m); err != nil {
			return
		}
		for _, s := range states {
			if !s.mode.Reads().Has(m.Type) || s.mode.ValidateRead(m) != nil {
				continue
			}
			var buf bytes.Buffer
			e := NewEncoder(&buf)
			var sc AnswerScratch
			if _, _, err := s.st.Answer(m, e, &sc); err != nil {
				t.Fatalf("%s: accepted read %+v answered with %v", s.mode.Name(), m, err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			dec := NewDecoder(&buf)
			if m.Type != MsgDomainQuery {
				if _, err := s.mode.ReadSums(dec); err != nil {
					t.Fatalf("%s: sums answer to %+v does not decode: %v", s.mode.Name(), m, err)
				}
				continue
			}
			a, err := dec.ReadDomainAnswer()
			if err != nil {
				t.Fatalf("%s: answer to %+v does not decode: %v", s.mode.Name(), m, err)
			}
			if a.Kind != m.Kind || a.Item != m.Item || a.L != m.L || a.K != m.K {
				t.Fatalf("%s: answer %+v does not echo query %+v", s.mode.Name(), a, m)
			}
		}
	})
}
