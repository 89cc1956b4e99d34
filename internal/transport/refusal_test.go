package transport

import (
	"bytes"
	"testing"

	"rtf/internal/wire"
)

// TestIngestRefusalText pins, byte for byte, the error each mode's
// ingest contract refuses a message with — and so the check order
// behind it: user, item or bucket, bit, order, index, seed. The general
// decoder's short-message, overflow and bit-byte errors on each of the
// five ingest types are pinned beside the decoder, by internal/wire's
// TestDecodeRefusalText. The strings were generated from the per-mode
// validators the contract's error builder replaced; a changed string is
// a changed wire contract, not a test to update.
func TestIngestRefusalText(t *testing.T) {
	contracts := map[string]wire.Ingest{}
	for _, c := range wireCases() {
		contracts[c.name] = c.mode.Ingest()
	}
	const seed = hashedTestSeed
	refusals := []struct {
		mode string
		m    wire.Msg
		want string
	}{
		// Boolean: d = 64, orders 0..6.
		{"bool", wire.Msg{Type: wire.MsgHello, User: -1}, "transport: negative user id -1"},
		{"bool", wire.Msg{Type: wire.MsgHello, User: -1, Order: 99}, "transport: negative user id -1"},
		{"bool", wire.Msg{Type: wire.MsgHello, User: 1, Order: 7}, "transport: hello order 7 out of range [0..6]"},
		{"bool", wire.Msg{Type: wire.MsgHello, User: 1, Order: -1}, "transport: hello order -1 out of range [0..6]"},
		{"bool", wire.Msg{Type: wire.MsgReport, User: -5, Order: 99, J: 1, Bit: 1}, "transport: negative user id -5"},
		{"bool", wire.Msg{Type: wire.MsgReport, User: 1, Order: 0, J: 1, Bit: 0}, "transport: report bit 0 not ±1"},
		{"bool", wire.Msg{Type: wire.MsgReport, User: 1, Order: 99, J: 0, Bit: 2}, "transport: report bit 2 not ±1"},
		{"bool", wire.Msg{Type: wire.MsgReport, User: 1, Order: 7, J: 0, Bit: -1}, "transport: report order 7 out of range [0..6]"},
		{"bool", wire.Msg{Type: wire.MsgReport, User: 1, Order: -1, J: 1, Bit: 1}, "transport: report order -1 out of range [0..6]"},
		{"bool", wire.Msg{Type: wire.MsgReport, User: 1, Order: 0, J: 0, Bit: 1}, "transport: report index 0 out of range for order 0"},
		{"bool", wire.Msg{Type: wire.MsgReport, User: 1, Order: 0, J: 65, Bit: 1}, "transport: report index 65 out of range for order 0"},
		{"bool", wire.Msg{Type: wire.MsgReport, User: 1, Order: 1, J: 33, Bit: -1}, "transport: report index 33 out of range for order 1"},
		{"bool", wire.Msg{Type: wire.MsgReport, User: 1, Order: 2, J: -3, Bit: 1}, "transport: report index -3 out of range for order 2"},
		{"bool", wire.Msg{Type: wire.MsgDomainHello, User: 1}, "transport: collector cannot ingest message type 10"},
		{"bool", wire.Msg{Type: wire.MsgDomainReport, User: 1, J: 1, Bit: 1}, "transport: collector cannot ingest message type 11"},
		{"bool", wire.Msg{Type: wire.MsgHashedDomainHello, User: 1, Seed: seed}, "transport: collector cannot ingest message type 24"},
		{"bool", wire.Msg{Type: wire.MsgView}, "transport: collector cannot ingest message type 18"},
		{"bool", wire.Msg{Type: 0, User: -1}, "transport: collector cannot ingest message type 0"},
		// Exact domain: m = 8 items.
		{"exact", wire.Msg{Type: wire.MsgDomainHello, User: -1, Item: 8, Order: 99}, "transport: negative user id -1"},
		{"exact", wire.Msg{Type: wire.MsgDomainHello, User: 1, Item: 8, Order: 99}, "transport: hello item 8 out of range [0..8)"},
		{"exact", wire.Msg{Type: wire.MsgDomainHello, User: 1, Item: -1}, "transport: hello item -1 out of range [0..8)"},
		{"exact", wire.Msg{Type: wire.MsgDomainHello, User: 1, Item: 7, Order: 7}, "transport: hello order 7 out of range [0..6]"},
		{"exact", wire.Msg{Type: wire.MsgDomainReport, User: -1, Item: 8, J: 1, Bit: 1}, "transport: negative user id -1"},
		{"exact", wire.Msg{Type: wire.MsgDomainReport, User: 1, Item: 8, Order: 99, J: 1, Bit: 0}, "transport: report item 8 out of range [0..8)"},
		{"exact", wire.Msg{Type: wire.MsgDomainReport, User: 1, Item: 0, Order: 99, J: 0, Bit: -2}, "transport: report bit -2 not ±1"},
		{"exact", wire.Msg{Type: wire.MsgDomainReport, User: 1, Item: 0, Order: 7, J: 0, Bit: 1}, "transport: report order 7 out of range [0..6]"},
		{"exact", wire.Msg{Type: wire.MsgDomainReport, User: 1, Item: 0, Order: 6, J: 2, Bit: 1}, "transport: report index 2 out of range for order 6"},
		{"exact", wire.Msg{Type: wire.MsgDomainReport, User: 1, Item: 0, Order: 0, J: -3, Bit: -1}, "transport: report index -3 out of range for order 0"},
		{"exact", wire.Msg{Type: wire.MsgHello, User: 1}, "transport: domain collector cannot ingest message type 1"},
		{"exact", wire.Msg{Type: wire.MsgReport, User: 1, J: 1, Bit: 1}, "transport: domain collector cannot ingest message type 2"},
		{"exact", wire.Msg{Type: wire.MsgHashedDomainHello, User: 1, Seed: seed}, "transport: domain collector cannot ingest message type 24"},
		{"exact", wire.Msg{Type: wire.MsgShardTransfer, User: -1}, "transport: domain collector cannot ingest message type 22"},
		// Hashed domain: g = 32 buckets under the epoch seed.
		{"hashed", wire.Msg{Type: wire.MsgHashedDomainHello, User: -1, Item: 32, Order: 99, Seed: seed + 1}, "transport: negative user id -1"},
		{"hashed", wire.Msg{Type: wire.MsgHashedDomainHello, User: 1, Item: 32, Order: 99, Seed: seed + 1}, "transport: hello bucket 32 out of range [0..32)"},
		{"hashed", wire.Msg{Type: wire.MsgHashedDomainHello, User: 1, Item: -1, Seed: seed}, "transport: hello bucket -1 out of range [0..32)"},
		{"hashed", wire.Msg{Type: wire.MsgHashedDomainHello, User: 1, Item: 31, Order: 7, Seed: seed + 1}, "transport: hello order 7 out of range [0..6]"},
		{"hashed", wire.Msg{Type: wire.MsgHashedDomainHello, User: 1, Item: 31, Order: 6, Seed: seed + 1}, "transport: hello hash seed 1592614638 does not match the server's epoch seed"},
		{"hashed", wire.Msg{Type: wire.MsgHashedDomainHello, User: 1, Item: 31, Order: 6, Seed: 0}, "transport: hello hash seed 0 does not match the server's epoch seed"},
		{"hashed", wire.Msg{Type: wire.MsgDomainReport, User: -1, Item: 32, J: 1, Bit: 1}, "transport: negative user id -1"},
		{"hashed", wire.Msg{Type: wire.MsgDomainReport, User: 1, Item: 32, Order: 99, J: 1, Bit: 0}, "transport: report bucket 32 out of range [0..32)"},
		{"hashed", wire.Msg{Type: wire.MsgDomainReport, User: 1, Item: 0, Order: 99, J: 0, Bit: 3}, "transport: report bit 3 not ±1"},
		{"hashed", wire.Msg{Type: wire.MsgDomainReport, User: 1, Item: 0, Order: 7, J: 0, Bit: 1}, "transport: report order 7 out of range [0..6]"},
		{"hashed", wire.Msg{Type: wire.MsgDomainReport, User: 1, Item: 0, Order: 3, J: 9, Bit: 1}, "transport: report index 9 out of range for order 3"},
		{"hashed", wire.Msg{Type: wire.MsgDomainReport, User: 1, Item: 0, Order: 3, J: -3, Bit: -1}, "transport: report index -3 out of range for order 3"},
		{"hashed", wire.Msg{Type: wire.MsgDomainHello, User: 1}, "transport: hashed domain collector cannot ingest message type 10"},
		{"hashed", wire.Msg{Type: wire.MsgHello, User: 1}, "transport: hashed domain collector cannot ingest message type 1"},
		{"hashed", wire.Msg{Type: wire.MsgReport, User: 1, J: 1, Bit: 1}, "transport: hashed domain collector cannot ingest message type 2"},
		{"hashed", wire.Msg{Type: wire.MsgQueryV2, Kind: wire.QueryPoint, L: 1}, "transport: hashed domain collector cannot ingest message type 6"},
	}
	for _, c := range refusals {
		ingest := contracts[c.mode]
		if err := ingest.Explain(&c.m); err == nil || err.Error() != c.want {
			t.Errorf("%s contract refuses %+v with %v, want %q", c.mode, c.m, err, c.want)
		}
		// A message that encodes fails a served frame with the same text.
		raw, err := appendMsg(nil, &c.m)
		if err != nil {
			continue
		}
		if _, err := wire.NewDecoder(bytes.NewReader(raw)).NextFrame(&ingest); err == nil || err.Error() != c.want {
			t.Errorf("%s frame of %+v fails with %v, want %q", c.mode, c.m, err, c.want)
		}
	}
}
