package transport

import (
	"bytes"
	"math"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// served encodes m as a frame of its own and reads it the way c's server
// does: decoded under the mode's contract, with the membership control
// frames as reads too, and a read then checked by ValidateRead. It
// returns the read's Msg, if m is one, and the first refusal on the way,
// the encoder's included.
func served(c wireCase, m wire.Msg) (wire.Msg, error) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	if err := enc.Encode(m); err != nil {
		return wire.Msg{}, err
	}
	if err := enc.Flush(); err != nil {
		return wire.Msg{}, err
	}
	ingest := c.mode.Ingest()
	ingest.Reads |= wire.ControlFrames
	f, err := wire.NewDecoder(&buf).NextFrame(&ingest)
	if err != nil || len(f.Reads) == 0 {
		return wire.Msg{}, err
	}
	return f.Reads[0].Msg, c.mode.ValidateRead(f.Reads[0].Msg)
}

// TestNarrowedConstructorsKeepOutcome builds every narrowed Msg field —
// order, item or bucket, k, m and g, shard — through its constructor
// from values that do not fit, 2^32 + 1 and 1 − 2^32, and serves the
// message. A wrapping narrowing would turn both into 1, a valid value,
// which the test serves too; a saturating one keeps the outcome a
// full-width field had: the message is refused, and a top-k k asks for
// the whole catalogue.
func TestNarrowedConstructorsKeepOutcome(t *testing.T) {
	const wrapped = 1 // what int32 and int16 make of both values below
	rep := func(order int) protocol.Report { return protocol.Report{User: 5, Order: order, J: 1, Bit: 1} }
	for _, c := range wireCases() {
		enc := hashedTestEnc()
		fields := map[string]func(v int) wire.Msg{}
		switch c.name {
		case "bool":
			fields["hello order"] = func(v int) wire.Msg { return wire.Hello(5, v) }
			fields["report order"] = func(v int) wire.Msg { return wire.FromReport(rep(v)) }
			fields["shard"] = func(v int) wire.Msg { return wire.ShardSums(v) }
		case "exact":
			fields["hello order"] = func(v int) wire.Msg { return wire.DomainHello(5, 0, v) }
			fields["hello item"] = func(v int) wire.Msg { return wire.DomainHello(5, v, 0) }
			fields["report order"] = func(v int) wire.Msg { return wire.FromDomainReport(0, rep(v)) }
			fields["report item"] = func(v int) wire.Msg { return wire.FromDomainReport(v, rep(0)) }
			fields["query item"] = func(v int) wire.Msg { return wire.DomainQuery(wire.QueryPointItem, v, 1, 0, 0) }
		case "hashed":
			fields["hello order"] = func(v int) wire.Msg { return wire.HashedDomainHello(5, 0, v, enc.Seed) }
			fields["hello bucket"] = func(v int) wire.Msg { return wire.HashedDomainHello(5, v, 0, enc.Seed) }
			fields["report bucket"] = func(v int) wire.Msg { return wire.FromDomainReport(v, rep(0)) }
			fields["top-k k"] = func(v int) wire.Msg { return wire.DomainQuery(wire.QueryTopK, 0, 1, 0, v) }
			fields["sums m"] = func(v int) wire.Msg { return wire.HashedDomainSums(enc.M-wrapped+v, enc.G, enc.Seed) }
			fields["sums g"] = func(v int) wire.Msg { return wire.HashedDomainSums(enc.M, enc.G-wrapped+v, enc.Seed) }
		}
		for name, build := range fields {
			if _, err := served(c, build(wrapped)); err != nil {
				t.Fatalf("%s %s: the wrapped value is refused (%v); the case shows nothing", c.name, name, err)
			}
			for _, v := range []int{1<<32 + 1, 1 - 1<<32} {
				if _, err := served(c, build(v)); err == nil {
					t.Errorf("%s %s %d: served, want refused", c.name, name, v)
				}
			}
		}
	}

	// An exact top-k k beyond 32 bits reads the whole catalogue, as a
	// full-width k did; a negative one is refused.
	exact := wireCases()[1]
	ds := hh.NewDomainServer(wireD, wireM, wireScale, 1)
	for _, c := range []struct {
		k, items int
	}{{wrapped, 1}, {1<<32 + 1, wireM}} {
		m, err := served(exact, wire.DomainQuery(wire.QueryTopK, 0, 1, 0, c.k))
		if err != nil {
			t.Fatalf("top-k k=%d: %v", c.k, err)
		}
		a, err := answerDomain(ds, m)
		if err != nil || len(a.Items) != c.items {
			t.Fatalf("top-k k=%d answers %d items (%v), want %d", c.k, len(a.Items), err, c.items)
		}
	}
	if _, err := served(exact, wire.DomainQuery(wire.QueryTopK, 0, 1, 0, 1-1<<32)); err == nil {
		t.Fatal("top-k with a negative k beyond 32 bits: served, want refused")
	}
}

// TestIngestContractAtNarrowedEdges walks the ingest contract over the
// edges of the narrowed Msg fields, where Check narrows an int32 item
// to a uint32 row and an int16 order to a uint8: in every mode, check
// and explain agree, and nothing at an edge is accepted (the Boolean
// mode has no item on its wire and ignores the field).
func TestIngestContractAtNarrowedEdges(t *testing.T) {
	items := []int32{math.MinInt32, math.MinInt32 + 1, -1, math.MaxInt32}
	orders := []int16{math.MinInt16, -256, -1, 256, 257, math.MaxInt16 - 1, math.MaxInt16}
	for _, c := range wireCases() {
		ingest := c.mode.Ingest()
		for _, m := range []wire.Msg{c.hello(5), c.report(5, 0)} {
			for _, it := range items {
				for _, o := range orders {
					for _, e := range []wire.Msg{withItem(m, it), withOrder(m, o), withOrder(withItem(m, it), o)} {
						var r wire.Rec
						ok, err := ingest.Check(&e, &r), ingest.Explain(&e)
						if ok != (err == nil) {
							t.Fatalf("%s: check says %v for %+v, explain says %v", c.name, ok, e, err)
						}
						if ok && (e.Order != m.Order || c.name != "bool" && e.Item != m.Item) {
							t.Fatalf("%s: %+v accepted as record %+v", c.name, e, r)
						}
					}
				}
			}
		}
	}
}

func withItem(m wire.Msg, item int32) wire.Msg   { m.Item = item; return m }
func withOrder(m wire.Msg, order int16) wire.Msg { m.Order = order; return m }
