package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// FuzzDomainReportDecode feeds arbitrary bytes to the decoder with the
// domain ingest frames in scope: it must return messages or errors,
// never panic, and every successfully decoded message must satisfy its
// type's wire invariants (checkDecoded: non-negative ids and items, ±1
// bits, ...). Batches are exercised through both Next and NextBatch.
func FuzzDomainReportDecode(f *testing.F) {
	seed := func(ms ...wire.Msg) []byte {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
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
	batch := func(ms ...wire.Msg) []byte {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.EncodeBatch(ms); err != nil {
			f.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(wire.DomainHello(1, 2, 3)))
	f.Add(seed(wire.FromDomainReport(2, protocol.Report{User: 9, Order: 1, J: 4, Bit: 1})))
	f.Add(seed(wire.FromDomainReport(0, protocol.Report{User: 0, Order: 0, J: 1, Bit: -1})))
	f.Add(batch(wire.DomainHello(1, 0, 0), wire.FromDomainReport(0, protocol.Report{User: 1, Order: 0, J: 1, Bit: 1})))
	f.Add([]byte{byte(wire.MsgDomainHello), 1, 2})                                              // truncated hello
	f.Add([]byte{byte(wire.MsgDomainReport), 1, 2, 3, 4, 250})                                  // invalid bit byte
	f.Add([]byte{byte(wire.MsgDomainReport), 255, 255, 255, 255, 255, 255, 255, 255, 255, 255}) // overlong varint
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, data, func(m wire.Msg) { checkDecoded(t, m) })
	})
}

// FuzzDomainQueryDecode feeds arbitrary bytes to the three domain query
// read paths — the scalar domain-query decoder, ReadDomainAnswer and
// ReadDomainSums — which must fail cleanly on garbage, never panic, and
// uphold their invariants on success (bounded lengths, non-negative
// counts).
func FuzzDomainQueryDecode(f *testing.F) {
	encode := func(m wire.Msg) []byte {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.Encode(m); err != nil {
			f.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(encode(wire.DomainQuery(wire.QueryPointItem, 3, 17, 0, 0)))
	f.Add(encode(wire.DomainQuery(wire.QueryTopK, 0, 9, 0, 5)))
	f.Add(encode(wire.DomainSums()))
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	if err := enc.EncodeDomainAnswer(wire.DomainAnswerFrame{Kind: wire.QueryTopK, L: 2, K: 2, Items: []int{1, 0}, Values: []float64{5, 3}}); err != nil {
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
	f.Add([]byte{byte(wire.MsgDomainAnswer), 1, byte(wire.QueryTopK)})  // truncated answer
	f.Add([]byte{byte(wire.MsgDomainSumsFrame), 1, 255, 255, 255, 127}) // huge horizon
	f.Add([]byte{byte(wire.MsgDomainQuery), 9})                         // bad version
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := wire.NewDecoder(bytes.NewReader(data)).Next(); err == nil && m.Type == wire.MsgDomainQuery {
			if m.Item < 0 || m.L < 0 || m.R < 0 || m.K < 0 {
				t.Fatalf("decoded domain query with negative field: %+v", m)
			}
		}
		if a, err := wire.NewDecoder(bytes.NewReader(data)).ReadDomainAnswer(); err == nil {
			if len(a.Items) > wire.MaxAnswerLen || len(a.Values) > wire.MaxAnswerLen {
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
		if s, err := wire.NewDecoder(bytes.NewReader(data)).ReadDomainSums(); err == nil {
			if sc := s.Scope; sc != (wire.Scope{}) && (sc.L < 1 || sc.R < sc.L || sc.R > s.D) {
				t.Fatalf("decoded domain sums scope [%d..%d] for d=%d", sc.L, sc.R, s.D)
			}
			if s.M < 2 || s.M > wire.MaxDomainM || len(s.Counters) != s.M*protocol.ScopedStride(s.D, s.Scope.L, s.Scope.R) {
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
		hello := wire.DomainHello
		if enc.Hashed() {
			hello = func(user, row, order int) wire.Msg { return wire.HashedDomainHello(user, row, order, enc.Seed) }
		}
		for u := 0; u < 12; u++ {
			row, order := u%enc.Rows(), u%4
			bit := int8(1 - 2*(u%3%2))
			if err := ingestRun(col, u%2, []wire.Msg{
				hello(u, row, order),
				wire.FromDomainReport(row, protocol.Report{User: u, Order: order, J: 1 + u%(d>>uint(order)), Bit: bit}),
			}); err != nil {
				f.Fatal(err)
			}
		}
		states = append(states, live{mode, col.st})
	}
	for _, m := range []wire.Msg{
		wire.DomainQuery(wire.QueryPointItem, 4, 3, 0, 0),
		wire.DomainQuery(wire.QueryPointItem, 2999, d, 0, 0),
		wire.DomainQuery(wire.QuerySeriesItem, 1, 0, 0, 0),
		wire.DomainQuery(wire.QueryTopK, 0, d, 0, 3),
		wire.DomainQuery(wire.QueryTopK, 0, 1, 0, wire.MaxAnswerLen),
		wire.DomainQuery(wire.QueryTopK, 0, 1, 0, wire.MaxAnswerLen+1),
		wire.DomainSums(),
		{Type: wire.MsgDomainSums, L: 2, R: 5},
		wire.HashedDomainSums(3000, 4, 0x5eed),
		{Type: wire.MsgHashedDomainSums, Item: 3000, K: 4, Seed: 0x5eed, L: 1, R: d},
	} {
		b, err := appendMsg(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, err := decodeOne(data)
		if err != nil {
			return
		}
		for _, s := range states {
			if !s.mode.Ingest().Reads.Has(m.Type) || s.mode.ValidateRead(m) != nil {
				continue
			}
			var buf bytes.Buffer
			e := wire.NewEncoder(&buf)
			var sc AnswerScratch
			if _, _, err := s.st.Answer(m, e, &sc); err != nil {
				t.Fatalf("%s: accepted read %+v answered with %v", s.mode.Name(), m, err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			dec := wire.NewDecoder(&buf)
			if m.Type != wire.MsgDomainQuery {
				if _, err := s.mode.ReadSums(dec); err != nil {
					t.Fatalf("%s: sums answer to %+v does not decode: %v", s.mode.Name(), m, err)
				}
				continue
			}
			a, err := dec.ReadDomainAnswer()
			if err != nil {
				t.Fatalf("%s: answer to %+v does not decode: %v", s.mode.Name(), m, err)
			}
			if a.Kind != m.Kind || a.Item != int(m.Item) || a.L != m.L || a.K != int(m.K) {
				t.Fatalf("%s: answer %+v does not echo query %+v", s.mode.Name(), a, m)
			}
		}
	})
}
