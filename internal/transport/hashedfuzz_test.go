package transport

import (
	"bytes"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// FuzzHashedDomainDecode feeds arbitrary bytes to the decoder with the
// hashed-domain frames in scope — the seed-carrying hashed hello and
// the encoding-carrying hashed sums request — plus the bucket-tagged
// reports that share MsgDomainReport with the exact encoding. The
// decoder must return messages or errors, never panic; every decoded
// hashed message must satisfy the wire invariants (non-negative user,
// bucket, catalogue and bucket-count fields, ±1 bits); and every
// decoded message must round-trip through the encoder bit-for-bit.
func FuzzHashedDomainDecode(f *testing.F) {
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
	f.Add(seed(wire.HashedDomainHello(7, 3, 2, 0xdeadbeef)))
	f.Add(seed(wire.HashedDomainHello(0, 0, 0, 0)))
	f.Add(seed(wire.HashedDomainSums(1_000_000, 256, 0x9e3779b97f4a7c15)))
	f.Add(seed(wire.HashedDomainSums(hh.MaxHashedDomainM, hh.MaxDomainRows, 1)))
	f.Add(batch(
		wire.HashedDomainHello(1, 0, 0, 42),
		wire.FromDomainReport(0, protocol.Report{User: 1, Order: 0, J: 1, Bit: 1}),
	))
	f.Add([]byte{byte(wire.MsgHashedDomainHello), 1, 2})                                             // truncated hello
	f.Add([]byte{byte(wire.MsgHashedDomainHello), 255, 255, 255, 255, 255, 255, 255, 255, 255, 255}) // overlong varint
	f.Add([]byte{byte(wire.MsgHashedDomainSums), 9})                                                 // bad version
	f.Add([]byte{byte(wire.MsgHashedDomainSums), 1, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // huge m
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, data, func(m wire.Msg) {
			checkDecoded(t, m)
			// Every successfully decoded hashed message re-encodes and
			// re-decodes to itself: the codec cannot lose the seed or
			// the encoding parameters.
			if m.Type != wire.MsgHashedDomainHello && m.Type != wire.MsgHashedDomainSums || m.Order < 0 {
				return // a negative order is refused downstream by the contract
			}
			var buf bytes.Buffer
			enc := wire.NewEncoder(&buf)
			if err := enc.Encode(m); err != nil {
				t.Fatalf("re-encoding decoded %+v: %v", m, err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := wire.NewDecoder(bytes.NewReader(buf.Bytes())).Next()
			if err != nil {
				t.Fatalf("re-decoding %+v: %v", m, err)
			}
			if back != m {
				t.Fatalf("round trip changed message: %+v -> %+v", m, back)
			}
		})
	})
}
