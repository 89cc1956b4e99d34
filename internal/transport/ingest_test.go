package transport

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"rtf/internal/dyadic"
)

// TestIngestContractAgreesWithValidators walks a grid of messages —
// every ingest type with each field at, around and far past its bound,
// the values a 32-bit or 8-bit narrowing would fold back into range
// among them — through each mode's contract: check accepts exactly what
// the mode's Validate*Ingest accepts (so explain always has an error for
// a refusal), and an accepted message's record holds its fields.
func TestIngestContractAgreesWithValidators(t *testing.T) {
	enc := hashedTestEnc()
	validators := map[string]func(Msg) error{
		"bool":   func(m Msg) error { return ValidateIngest(wireD, m) },
		"exact":  func(m Msg) error { return ValidateDomainIngest(wireD, wireM, m) },
		"hashed": func(m Msg) error { return ValidateHashedDomainIngest(wireD, enc, m) },
	}
	logD := dyadic.Log2(wireD)
	users := []int{0, 1, math.MaxInt, -1, math.MinInt}
	items := []int{0, 1, wireM - 1, wireM, hashedTestG - 1, hashedTestG, 1<<32 + 1, 1 << 32, -1}
	orders := []int{0, 1, logD, logD + 1, 255, 256, 256 + 1, 1<<32 + 1, -1}
	js := []int{0, 1, 2, wireD >> 1, wireD>>1 + 1, wireD, wireD + 1, 1<<32 + 1, -1}
	bits := []int8{1, -1, 0, 2, -2}
	seeds := []uint64{enc.Seed, enc.Seed + 1, 0}
	for _, c := range wireCases() {
		ingest, validate := c.mode.Ingest(), validators[c.name]
		n, accepted := 0, 0
		try := func(m Msg) {
			var r Rec
			ok, err := ingest.check(&m, &r), validate(m)
			if ok != (err == nil) {
				t.Fatalf("%s: contract says %v for %+v, validator says %v", c.name, ok, m, err)
			}
			if !ok {
				if ingest.explain(&m) == nil {
					t.Fatalf("%s: no error to refuse %+v with", c.name, m)
				}
				return
			}
			want := Msg{Type: m.Type, User: r.User, Order: int(r.Order), J: int(r.J), Bit: r.Bit, Seed: m.Seed}
			if c.name != "bool" {
				want.Item = int(r.Item)
			} else {
				want.Item = m.Item // not on the Boolean wire; ignored
			}
			if m.Type == ingest.Hello {
				// A hello has no index and no bit: its record holds neither.
				want.J, want.Bit = m.J, m.Bit
			}
			if want != m || (m.Type == ingest.Hello) != (r.Bit == 0) || r.Bit == 0 && r.J != 0 {
				t.Fatalf("%s: %+v became record %+v", c.name, m, r)
			}
			accepted++
		}
		for typ := MsgType(0); typ < 32; typ++ {
			for _, u := range users {
				for _, it := range items {
					for _, o := range orders {
						for _, j := range js {
							for _, b := range bits {
								try(Msg{Type: typ, User: u, Item: it, Order: o, J: j, Bit: b, Seed: enc.Seed})
								n++
							}
						}
						for _, s := range seeds {
							try(Msg{Type: typ, User: u, Item: it, Order: o, Seed: s})
							n++
						}
					}
				}
			}
		}
		if accepted == 0 || accepted == n {
			t.Fatalf("%s: %d of %d messages accepted", c.name, accepted, n)
		}
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
	c := wireCases()[1]
	ingest := c.mode.Ingest()
	big := c.ingest(1<<14, maxRetainedBatch) // six messages a user
	small := c.ingest(7, 1)
	stream := frame(t, MsgBatchAcked, big, 0, false)
	for i := 0; i < smallFramesToRelease+1; i++ {
		stream = append(stream, frame(t, MsgBatchAcked, small, 0, false)...)
	}
	dec := NewDecoder(bytes.NewReader(stream))
	f, err := dec.NextFrame(&ingest)
	if err != nil || len(f.Recs) != len(big) {
		t.Fatalf("big frame: %d records, %v", len(f.Recs), err)
	}
	if cap(f.Recs) > len(big) {
		t.Fatalf("a frame declaring %d messages left room for %d records", len(big), cap(f.Recs))
	}
	if cap(f.Wire) > len(big)*maxScalarWire || cap(f.Reads) != 0 || cap(dec.pending) != 0 {
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
	c := wireCases()[0]
	ingest := c.mode.Ingest()
	query, err := appendMsg(nil, &c.read)
	if err != nil {
		t.Fatal(err)
	}
	const pipelined = smallReadBuffer // queries: several buffers' worth of bytes
	dec := NewDecoder(bytes.NewReader(bytes.Repeat(query, pipelined)))
	for n := 0; n < pipelined; n++ {
		if f, err := dec.NextFrame(&ingest); err != nil || len(f.Reads) != 1 || f.Reads[0].Msg != c.read {
			t.Fatalf("query %d: %+v, %v", n, f, err)
		}
	}
	if got := dec.r.Size(); got != smallReadBuffer {
		t.Fatalf("a query-only connection reads through %d bytes, want %d", got, smallReadBuffer)
	}

	big := frame(t, MsgBatchAcked, c.ingest(1<<14, 400), 0, false) // 2,400 messages, several buffers long
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
