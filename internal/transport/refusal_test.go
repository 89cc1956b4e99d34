package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestIngestRefusalText pins, byte for byte, the error each mode's
// ingest contract refuses a message with — and so the check order
// behind it: user, item or bucket, bit, order, index, seed — together
// with the general decoder's short-message, overflow and bit-byte
// errors on each of the five ingest types. The strings were generated
// from the per-mode validators the contract's error builder replaced;
// a changed string is a changed wire contract, not a test to update.
func TestIngestRefusalText(t *testing.T) {
	enc := hashedTestEnc()
	validators := map[string]func(Msg) error{
		"bool":   func(m Msg) error { return ValidateIngest(wireD, m) },
		"exact":  func(m Msg) error { return ValidateDomainIngest(wireD, wireM, m) },
		"hashed": func(m Msg) error { return ValidateHashedDomainIngest(wireD, enc, m) },
	}
	contracts := map[string]Ingest{}
	for _, c := range wireCases() {
		contracts[c.name] = c.mode.Ingest()
	}
	const seed = hashedTestSeed
	refusals := []struct {
		mode string
		m    Msg
		want string
	}{
		// Boolean: d = 64, orders 0..6.
		{"bool", Msg{Type: MsgHello, User: -1}, "transport: negative user id -1"},
		{"bool", Msg{Type: MsgHello, User: -1, Order: 99}, "transport: negative user id -1"},
		{"bool", Msg{Type: MsgHello, User: 1, Order: 7}, "transport: hello order 7 out of range [0..6]"},
		{"bool", Msg{Type: MsgHello, User: 1, Order: -1}, "transport: hello order -1 out of range [0..6]"},
		{"bool", Msg{Type: MsgReport, User: -5, Order: 99, J: 1, Bit: 1}, "transport: negative user id -5"},
		{"bool", Msg{Type: MsgReport, User: 1, Order: 0, J: 1, Bit: 0}, "transport: report bit 0 not ±1"},
		{"bool", Msg{Type: MsgReport, User: 1, Order: 99, J: 0, Bit: 2}, "transport: report bit 2 not ±1"},
		{"bool", Msg{Type: MsgReport, User: 1, Order: 7, J: 0, Bit: -1}, "transport: report order 7 out of range [0..6]"},
		{"bool", Msg{Type: MsgReport, User: 1, Order: -1, J: 1, Bit: 1}, "transport: report order -1 out of range [0..6]"},
		{"bool", Msg{Type: MsgReport, User: 1, Order: 0, J: 0, Bit: 1}, "transport: report index 0 out of range for order 0"},
		{"bool", Msg{Type: MsgReport, User: 1, Order: 0, J: 65, Bit: 1}, "transport: report index 65 out of range for order 0"},
		{"bool", Msg{Type: MsgReport, User: 1, Order: 1, J: 33, Bit: -1}, "transport: report index 33 out of range for order 1"},
		{"bool", Msg{Type: MsgReport, User: 1, Order: 2, J: -3, Bit: 1}, "transport: report index -3 out of range for order 2"},
		{"bool", Msg{Type: MsgDomainHello, User: 1}, "transport: collector cannot ingest message type 10"},
		{"bool", Msg{Type: MsgDomainReport, User: 1, J: 1, Bit: 1}, "transport: collector cannot ingest message type 11"},
		{"bool", Msg{Type: MsgHashedDomainHello, User: 1, Seed: seed}, "transport: collector cannot ingest message type 24"},
		{"bool", Msg{Type: MsgView}, "transport: collector cannot ingest message type 18"},
		{"bool", Msg{Type: 0, User: -1}, "transport: collector cannot ingest message type 0"},
		// Exact domain: m = 8 items.
		{"exact", Msg{Type: MsgDomainHello, User: -1, Item: 8, Order: 99}, "transport: negative user id -1"},
		{"exact", Msg{Type: MsgDomainHello, User: 1, Item: 8, Order: 99}, "transport: hello item 8 out of range [0..8)"},
		{"exact", Msg{Type: MsgDomainHello, User: 1, Item: -1}, "transport: hello item -1 out of range [0..8)"},
		{"exact", Msg{Type: MsgDomainHello, User: 1, Item: 7, Order: 7}, "transport: hello order 7 out of range [0..6]"},
		{"exact", Msg{Type: MsgDomainReport, User: -1, Item: 8, J: 1, Bit: 1}, "transport: negative user id -1"},
		{"exact", Msg{Type: MsgDomainReport, User: 1, Item: 8, Order: 99, J: 1, Bit: 0}, "transport: report item 8 out of range [0..8)"},
		{"exact", Msg{Type: MsgDomainReport, User: 1, Item: 0, Order: 99, J: 0, Bit: -2}, "transport: report bit -2 not ±1"},
		{"exact", Msg{Type: MsgDomainReport, User: 1, Item: 0, Order: 7, J: 0, Bit: 1}, "transport: report order 7 out of range [0..6]"},
		{"exact", Msg{Type: MsgDomainReport, User: 1, Item: 0, Order: 6, J: 2, Bit: 1}, "transport: report index 2 out of range for order 6"},
		{"exact", Msg{Type: MsgDomainReport, User: 1, Item: 0, Order: 0, J: -3, Bit: -1}, "transport: report index -3 out of range for order 0"},
		{"exact", Msg{Type: MsgHello, User: 1}, "transport: domain collector cannot ingest message type 1"},
		{"exact", Msg{Type: MsgReport, User: 1, J: 1, Bit: 1}, "transport: domain collector cannot ingest message type 2"},
		{"exact", Msg{Type: MsgHashedDomainHello, User: 1, Seed: seed}, "transport: domain collector cannot ingest message type 24"},
		{"exact", Msg{Type: MsgShardTransfer, User: -1}, "transport: domain collector cannot ingest message type 22"},
		// Hashed domain: g = 32 buckets under the epoch seed.
		{"hashed", Msg{Type: MsgHashedDomainHello, User: -1, Item: 32, Order: 99, Seed: seed + 1}, "transport: negative user id -1"},
		{"hashed", Msg{Type: MsgHashedDomainHello, User: 1, Item: 32, Order: 99, Seed: seed + 1}, "transport: hello bucket 32 out of range [0..32)"},
		{"hashed", Msg{Type: MsgHashedDomainHello, User: 1, Item: -1, Seed: seed}, "transport: hello bucket -1 out of range [0..32)"},
		{"hashed", Msg{Type: MsgHashedDomainHello, User: 1, Item: 31, Order: 7, Seed: seed + 1}, "transport: hello order 7 out of range [0..6]"},
		{"hashed", Msg{Type: MsgHashedDomainHello, User: 1, Item: 31, Order: 6, Seed: seed + 1}, "transport: hello hash seed 1592614638 does not match the server's epoch seed"},
		{"hashed", Msg{Type: MsgHashedDomainHello, User: 1, Item: 31, Order: 6, Seed: 0}, "transport: hello hash seed 0 does not match the server's epoch seed"},
		{"hashed", Msg{Type: MsgDomainReport, User: -1, Item: 32, J: 1, Bit: 1}, "transport: negative user id -1"},
		{"hashed", Msg{Type: MsgDomainReport, User: 1, Item: 32, Order: 99, J: 1, Bit: 0}, "transport: report bucket 32 out of range [0..32)"},
		{"hashed", Msg{Type: MsgDomainReport, User: 1, Item: 0, Order: 99, J: 0, Bit: 3}, "transport: report bit 3 not ±1"},
		{"hashed", Msg{Type: MsgDomainReport, User: 1, Item: 0, Order: 7, J: 0, Bit: 1}, "transport: report order 7 out of range [0..6]"},
		{"hashed", Msg{Type: MsgDomainReport, User: 1, Item: 0, Order: 3, J: 9, Bit: 1}, "transport: report index 9 out of range for order 3"},
		{"hashed", Msg{Type: MsgDomainReport, User: 1, Item: 0, Order: 3, J: -3, Bit: -1}, "transport: report index -3 out of range for order 3"},
		{"hashed", Msg{Type: MsgDomainHello, User: 1}, "transport: hashed domain collector cannot ingest message type 10"},
		{"hashed", Msg{Type: MsgHello, User: 1}, "transport: hashed domain collector cannot ingest message type 1"},
		{"hashed", Msg{Type: MsgReport, User: 1, J: 1, Bit: 1}, "transport: hashed domain collector cannot ingest message type 2"},
		{"hashed", Msg{Type: MsgQueryV2, Kind: QueryPoint, L: 1}, "transport: hashed domain collector cannot ingest message type 6"},
	}
	for _, c := range refusals {
		ingest := contracts[c.mode]
		if err := ingest.explain(&c.m); err == nil || err.Error() != c.want {
			t.Errorf("%s contract refuses %+v with %v, want %q", c.mode, c.m, err, c.want)
		}
		if err := validators[c.mode](c.m); err == nil || err.Error() != c.want {
			t.Errorf("%s validator refuses %+v with %v, want %q", c.mode, c.m, err, c.want)
		}
		// A message that encodes fails a served frame with the same text.
		wire, err := appendMsg(nil, &c.m)
		if err != nil {
			continue
		}
		if _, err := NewDecoder(bytes.NewReader(wire)).NextFrame(&ingest); err == nil || err.Error() != c.want {
			t.Errorf("%s frame of %+v fails with %v, want %q", c.mode, c.m, err, c.want)
		}
	}

	// The general decoder, on bytes no encoder writes: 2^63 is one past
	// the largest int, 2^64−1 the largest uvarint.
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	max64 := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	cat := func(typ MsgType, fields ...[]byte) []byte {
		return append([]byte{byte(typ)}, bytes.Join(fields, nil)...)
	}
	one, zero, bad := []byte{1}, []byte{0}, []byte{2}
	seedBytes := binary.AppendUvarint(nil, hashedTestSeed)
	decodes := []struct {
		b    []byte
		want string
	}{
		{cat(MsgHello, over, zero), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgHello, max64, one), "transport: user id 18446744073709551615 overflows"},
		{cat(MsgHello, one), "transport: short message"},
		{cat(MsgReport, over, zero, one, one), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgReport, one, zero, one, bad), "transport: invalid bit byte 2"},
		{cat(MsgReport, one, zero, one, []byte{0xff}), "transport: invalid bit byte 255"},
		{cat(MsgReport, one, zero, one), "transport: short message"},
		{cat(MsgDomainHello, over, one, zero), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgDomainHello, one, over, zero), "transport: item 9223372036854775808 overflows"},
		{cat(MsgDomainHello, over, max64, zero), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgDomainHello, one, one), "transport: short message"},
		{cat(MsgDomainReport, over, one, zero, one, one), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgDomainReport, one, max64, zero, one, one), "transport: item 18446744073709551615 overflows"},
		{cat(MsgDomainReport, one, one, zero, one, bad), "transport: invalid bit byte 2"},
		{cat(MsgDomainReport, over, over, zero, one, bad), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgDomainReport, one, one, zero, one), "transport: short message"},
		{cat(MsgHashedDomainHello, over, one, zero, seedBytes), "transport: user id 9223372036854775808 overflows"},
		{cat(MsgHashedDomainHello, one, over, zero, seedBytes), "transport: bucket 9223372036854775808 overflows"},
		{cat(MsgHashedDomainHello, one, one, zero), "transport: short message"},
		{cat(MsgHashedDomainHello, one, one, zero, []byte{0x80}), "transport: short message"},
	}
	for _, c := range decodes {
		if _, err := decodeScalarInto(c.b, new(Msg)); err == nil || err.Error() != c.want {
			t.Errorf("decoding % x fails with %v, want %q", c.b, err, c.want)
		}
	}
}
