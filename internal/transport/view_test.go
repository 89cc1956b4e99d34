package transport

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"rtf/internal/membership"
	"rtf/internal/wire"
)

func testView() membership.View {
	return membership.View{
		Epoch:     7,
		K:         2,
		NumShards: 64,
		Members: []membership.Member{
			{ID: "b0", Addr: "127.0.0.1:7610"},
			{ID: "b1", Addr: "127.0.0.1:7611"},
			{ID: "b2", Addr: "127.0.0.1:7612"},
		},
	}
}

func encodeViewBytes(t *testing.T, v membership.View) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	if err := enc.EncodeView(v); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestViewRoundTrip pins that a view frame survives the wire exactly
// and surfaces through the decoder as a marker + TakeView.
func TestViewRoundTrip(t *testing.T) {
	want := testView()
	dec := wire.NewDecoder(bytes.NewReader(encodeViewBytes(t, want)))
	m, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.MsgView {
		t.Fatalf("marker type %d, want MsgView", m.Type)
	}
	if got := dec.TakeView(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// TakeView releases: a second call returns the zero view.
	if got := dec.TakeView(); len(got.Members) != 0 {
		t.Fatalf("second TakeView returned %+v", got)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("trailing read: %v, want EOF", err)
	}
}

// TestViewRoundTripViaNextBatch pins the batch-granular read path the
// serve loops actually use.
func TestViewRoundTripViaNextBatch(t *testing.T) {
	want := testView()
	dec := wire.NewDecoder(bytes.NewReader(encodeViewBytes(t, want)))
	ms, err := dec.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Type != wire.MsgView {
		t.Fatalf("NextBatch returned %+v, want one MsgView marker", ms)
	}
	if got := dec.TakeView(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestViewTruncation checks every strict prefix of a valid frame fails
// with a truncation error rather than panicking or succeeding.
func TestViewTruncation(t *testing.T) {
	whole := encodeViewBytes(t, testView())
	for n := 0; n < len(whole); n++ {
		dec := wire.NewDecoder(bytes.NewReader(whole[:n]))
		if _, err := dec.Next(); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(whole))
		}
	}
}

// TestViewCorruption is the rejection table: version mismatch, bad
// counts, oversized strings, structurally invalid views.
func TestViewCorruption(t *testing.T) {
	valid := encodeViewBytes(t, testView())
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"version mismatch", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[1] = viewWireVersion + 1
			return c
		}, "unsupported view version"},
		{"huge member count", func(b []byte) []byte {
			// type, version, epoch(7), k(2), shards(64) are one byte
			// each here; patch the member count varint.
			c := append([]byte(nil), b[:5]...)
			c = append(c, 0xFF, 0xFF, 0xFF, 0x7F)
			return c
		}, "exceed limits"},
		{"zero-length id", func(b []byte) []byte {
			c := append([]byte(nil), b[:6]...)
			c = append(c, 0) // first member's id length
			return c
		}, "outside [1"},
		{"truncated mid-string", func(b []byte) []byte {
			return b[:8] // inside the first member id
		}, "unexpected EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := wire.NewDecoder(bytes.NewReader(tc.mut(valid)))
			_, err := dec.Next()
			if err == nil {
				t.Fatal("corrupt view frame decoded cleanly")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestViewStructurallyInvalid pins that a frame carrying a view the
// membership package rejects (duplicate IDs, K above the member count)
// fails at decode even though the bytes parse.
func TestViewStructurallyInvalid(t *testing.T) {
	v := testView()
	v.Members[1].ID = v.Members[0].ID
	// EncodeView validates too, so build the bytes by hand: reuse the
	// encoder on a valid view and patch b1's id to b0's.
	ok := testView()
	b := encodeViewBytes(t, ok)
	patched := bytes.Replace(b, []byte("b1"), []byte("b0"), 1)
	dec := wire.NewDecoder(bytes.NewReader(patched))
	if _, err := dec.Next(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate-id view decoded: err=%v", err)
	}
	if err := wire.NewEncoder(io.Discard).EncodeView(v); err == nil {
		t.Fatal("EncodeView accepted a duplicate-id view")
	}
}

// TestViewInsideBatchRejected pins that membership frames cannot hide
// inside batch frames (both the buffered fast path and the slow path).
func TestViewInsideBatchRejected(t *testing.T) {
	for _, typ := range []wire.MsgType{wire.MsgView, wire.MsgShardTransfer} {
		payload := []byte{byte(wire.MsgBatch), 1, byte(typ), viewWireVersion}
		dec := wire.NewDecoder(bytes.NewReader(payload))
		if _, err := dec.Next(); err == nil || !strings.Contains(err.Error(), "batch") {
			t.Fatalf("type %d inside batch: err=%v", typ, err)
		}
	}
}

// TestShardStateRoundTrip exercises the frame that carries a shard's
// state, the transfer install.
func TestShardStateRoundTrip(t *testing.T) {
	state := []byte("not-really-state-but-opaque-bytes")
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	// A transfer frame surfaces as a marker carrying the shard.
	if err := enc.EncodeShardTransfer(9, state); err != nil {
		t.Fatal(err)
	}
	enc.Flush()
	dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
	m, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.MsgShardTransfer || m.Shard != 9 {
		t.Fatalf("transfer marker %+v", m)
	}
	if got := dec.TakeShardState(); !bytes.Equal(got, state) {
		t.Fatalf("transfer state %q", got)
	}
	if dec.TakeShardState() != nil {
		t.Fatal("second TakeShardState not nil")
	}
}

// TestShardRequestRoundTrip pins the scalar shard-sums request through
// both decode paths (scalar and batched fast path).
func TestShardRequestRoundTrip(t *testing.T) {
	for _, m := range []wire.Msg{wire.ShardSums(0), wire.ShardSums(17), wire.ShardSums(63)} {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		enc.Flush()
		got, err := wire.NewDecoder(bytes.NewReader(buf.Bytes())).Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	}
	// Out-of-range shard rejected at encode and decode.
	if err := wire.NewEncoder(io.Discard).Encode(wire.Msg{Type: wire.MsgShardSums, Shard: -1}); err == nil {
		t.Fatal("negative shard encoded")
	}
	huge := []byte{byte(wire.MsgShardSums), viewWireVersion, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := wire.NewDecoder(bytes.NewReader(huge)).Next(); err == nil {
		t.Fatal("huge shard decoded")
	}
}

func TestMemberAckRoundTrip(t *testing.T) {
	for _, applied := range []bool{true, false} {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.EncodeMemberAck(applied); err != nil {
			t.Fatal(err)
		}
		enc.Flush()
		got, err := wire.NewDecoder(bytes.NewReader(buf.Bytes())).ReadMemberAck()
		if err != nil {
			t.Fatal(err)
		}
		if got != applied {
			t.Fatalf("ack round trip: %v", got)
		}
	}
	if _, err := wire.NewDecoder(bytes.NewReader([]byte{byte(wire.MsgMemberAck), 7})).ReadMemberAck(); err == nil {
		t.Fatal("invalid ack status accepted")
	}
	if _, err := wire.NewDecoder(bytes.NewReader([]byte{byte(wire.MsgBatchAck), 1})).ReadMemberAck(); err == nil {
		t.Fatal("wrong frame type accepted as member ack")
	}
}

// FuzzViewDecode feeds arbitrary bytes to the view-frame decode path:
// it must return a structurally valid view or a descriptive error,
// never panic, and every accepted view must re-encode and re-decode to
// itself.
func FuzzViewDecode(f *testing.F) {
	f.Add([]byte{byte(wire.MsgView), viewWireVersion, 1, 1, 4, 1, 1, 'a', 1, 'b'})
	f.Add(encodeViewBytesF(f, testView()))
	one := membership.View{Epoch: 0, K: 1, NumShards: 1, Members: []membership.Member{{ID: "x", Addr: "y"}}}
	f.Add(encodeViewBytesF(f, one))
	f.Add([]byte{byte(wire.MsgView), viewWireVersion + 1})
	f.Add([]byte{byte(wire.MsgView)})
	f.Add([]byte{byte(wire.MsgView), viewWireVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := wire.NewDecoder(bytes.NewReader(data))
		m, err := dec.Next()
		if err != nil {
			return // any descriptive error is fine
		}
		if m.Type != wire.MsgView {
			return // stream began with some other valid frame
		}
		v := dec.TakeView()
		if err := v.Validate(); err != nil {
			t.Fatalf("decoder surfaced an invalid view %+v: %v", v, err)
		}
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.EncodeView(v); err != nil {
			t.Fatalf("re-encode of decoded view failed: %v", err)
		}
		enc.Flush()
		dec2 := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
		if _, err := dec2.Next(); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if got := dec2.TakeView(); !reflect.DeepEqual(got, v) {
			t.Fatalf("re-round-trip mismatch:\n got %+v\nwant %+v", got, v)
		}
	})
}

func encodeViewBytesF(f *testing.F, v membership.View) []byte {
	f.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	if err := enc.EncodeView(v); err != nil {
		f.Fatal(err)
	}
	enc.Flush()
	return buf.Bytes()
}

// TestShardStateRefused pins the retirement of the shard-state export
// pair (types 20 and 21), which skipped the encoding check every sums
// request makes: a frame of either type — scalar or inside a batch, with
// or without an ingest contract, or on a membership backend's
// connection — is refused at its type byte with the one error that
// names the replacement, and the encoder no longer produces either.
func TestShardStateRefused(t *testing.T) {
	const want = "transport: shard state export removed; fetch ShardSums(shard) and fold it"
	ingest := BoolMode(16, 1).Ingest()
	for name, data := range map[string][]byte{
		"request":          {byte(wire.MsgShardState), 1, 5},
		"response":         {byte(wire.MsgShardStateFrame), 1, 5, 0},
		"request in batch": {byte(wire.MsgBatch), 2, byte(wire.MsgHello), 1, 0, byte(wire.MsgShardState), 1, 5},
	} {
		if _, err := wire.NewDecoder(bytes.NewReader(data)).NextBatch(); err == nil || err.Error() != want {
			t.Errorf("%s without a contract: got %v, want %q", name, err, want)
		}
		if f, err := wire.NewDecoder(bytes.NewReader(data)).NextFrame(&ingest); err == nil || err.Error() != want {
			t.Errorf("%s under the Boolean contract: got %+v, %v, want %q", name, f, err, want)
		}
	}
	for _, typ := range []wire.MsgType{wire.MsgShardState, wire.MsgShardStateFrame} {
		if err := wire.NewEncoder(io.Discard).Encode(wire.Msg{Type: typ, Shard: 5}); err == nil {
			t.Errorf("encoder still writes retired message type %d", typ)
		}
	}

	// A membership backend fails the connection, and only it.
	srv := NewIngestServer(NewShardMap(BoolMode(16, 1), 8, "n0"))
	logged := make(chan string, 4)
	srv.ErrorLog = func(err error) { logged <- err.Error() }
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	conn, err := net.Dial("tcp", (<-ready).String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{byte(wire.MsgShardState), 1, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("the backend answered a shard-state request")
	}
	if got := <-logged; !strings.HasSuffix(got, want) {
		t.Fatalf("backend logged %q, want it to end with %q", got, want)
	}
}
