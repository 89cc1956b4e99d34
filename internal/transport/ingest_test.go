package transport

import (
	"math"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/wire"
)

// TestIngestContractAgreesWithValidators walks a grid of messages —
// every ingest type with each field at, around and far past its bound,
// the values a 32-bit or 8-bit narrowing would fold back into range
// among them — through each mode's contract: check accepts exactly what
// explain has no error for, and an accepted message's record holds its
// fields.
func TestIngestContractAgreesWithValidators(t *testing.T) {
	enc := hashedTestEnc()
	logD := dyadic.Log2(wireD)
	users := []int{0, 1, math.MaxInt, -1, math.MinInt}
	items := []int{0, 1, wireM - 1, wireM, hashedTestG - 1, hashedTestG, 1<<32 + 1, 1 << 32, -1}
	orders := []int{0, 1, logD, logD + 1, 255, 256, 256 + 1, 1<<32 + 1, -1}
	js := []int{0, 1, 2, wireD >> 1, wireD>>1 + 1, wireD, wireD + 1, 1<<32 + 1, -1}
	bits := []int8{1, -1, 0, 2, -2}
	seeds := []uint64{enc.Seed, enc.Seed + 1, 0}
	for _, c := range wireCases() {
		ingest := c.mode.Ingest()
		n, accepted := 0, 0
		try := func(m wire.Msg) {
			var r wire.Rec
			ok, err := ingest.Check(&m, &r), ingest.Explain(&m)
			if ok != (err == nil) {
				t.Fatalf("%s: check says %v for %+v, explain says %v", c.name, ok, m, err)
			}
			if !ok {
				return
			}
			want := wire.Msg{Type: m.Type, User: r.User, Order: int16(r.Order), J: int(r.J), Bit: r.Bit, Seed: m.Seed}
			if c.name != "bool" {
				want.Item = int32(r.Item)
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
		for typ := wire.MsgType(0); typ < 32; typ++ {
			for _, u := range users {
				for _, it := range items {
					for _, o := range orders {
						for _, j := range js {
							for _, b := range bits {
								try(wire.Msg{Type: typ, User: u, Item: int32(it), Order: int16(o), J: j, Bit: b, Seed: enc.Seed})
								n++
							}
						}
						for _, s := range seeds {
							try(wire.Msg{Type: typ, User: u, Item: int32(it), Order: int16(o), Seed: s})
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
