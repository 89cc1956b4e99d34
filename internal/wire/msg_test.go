package wire

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"rtf/internal/protocol"
)

// TestMsgLayout pins what a copy of a Msg costs: at most 64 bytes, which
// the compiler copies with inline moves instead of runtime.duffcopy, and
// still comparable, which the codec's round-trip tests rely on.
func TestMsgLayout(t *testing.T) {
	if size := unsafe.Sizeof(Msg{}); size > 64 {
		t.Fatalf("Msg is %d bytes, want at most 64", size)
	}
	if !reflect.TypeOf(Msg{}).Comparable() {
		t.Fatal("Msg is not comparable")
	}
}

// TestConstructorsSaturate checks that a constructor clamps a value too
// large for its narrowed field instead of wrapping it into a small one.
func TestConstructorsSaturate(t *testing.T) {
	const big = 1<<32 + 1 // wraps to 1 as an int32 and as an int16
	r := protocol.Report{User: 7, Order: big, J: 1, Bit: 1}
	for _, c := range []struct {
		name      string
		got, want Msg
	}{
		{"Hello order", Hello(7, big), Msg{Type: MsgHello, User: 7, Order: math.MaxInt16}},
		{"Hello negative order", Hello(7, -big), Msg{Type: MsgHello, User: 7, Order: math.MinInt16}},
		{"FromReport order", FromReport(r), Msg{Type: MsgReport, User: 7, Order: math.MaxInt16, J: 1, Bit: 1}},
		{"DomainHello item", DomainHello(7, big, 2), Msg{Type: MsgDomainHello, User: 7, Item: math.MaxInt32, Order: 2}},
		{"FromDomainReport item", FromDomainReport(-big, protocol.Report{User: 7, Order: 1, J: 1, Bit: -1}),
			Msg{Type: MsgDomainReport, User: 7, Item: math.MinInt32, Order: 1, J: 1, Bit: -1}},
		{"HashedDomainHello bucket", HashedDomainHello(7, big, 2, 9), Msg{Type: MsgHashedDomainHello, User: 7, Item: math.MaxInt32, Order: 2, Seed: 9}},
		{"DomainQuery item and k", DomainQuery(QueryTopK, big, 3, 0, big), Msg{Type: MsgDomainQuery, Kind: QueryTopK, Item: math.MaxInt32, L: 3, K: math.MaxInt32}},
		{"HashedDomainSums m and g", HashedDomainSums(big, -big, 9), Msg{Type: MsgHashedDomainSums, Item: math.MaxInt32, K: math.MinInt32, Seed: 9}},
		{"ShardSums shard", ShardSums(big), Msg{Type: MsgShardSums, Shard: math.MaxInt32}},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

// TestAppendMsgsMatchesAppendMsg checks the in-place report appenders
// against appendMsg, byte for byte and error for error, over the
// boundaries of every varint they unroll, and over the reports they must
// hand to appendMsg (anything it refuses, an order past one byte).
func TestAppendMsgsMatchesAppendMsg(t *testing.T) {
	users := []int{0, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, 1 << 31, math.MaxInt, -1}
	js := []int{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, 1 << 32, -1}
	items := []int32{0, 127, 128, 16383, 16384, 1 << 21, 1<<28 - 1, 1 << 28, math.MaxInt32, -1}
	orders := []int16{64, 127, 128, 255, math.MaxInt16 - 1, math.MaxInt16, -1}
	for o := range int16(64) {
		orders = append(orders, o)
	}
	bits := []int8{1, -1, 0, 2}
	var all []Msg
	for _, u := range users {
		for _, o := range orders {
			for _, j := range js {
				for _, bit := range bits {
					all = append(all, Msg{Type: MsgReport, User: u, Order: o, J: j, Bit: bit})
					for _, it := range items {
						all = append(all, Msg{Type: MsgDomainReport, User: u, Item: it, Order: o, J: j, Bit: bit})
					}
				}
			}
		}
	}
	for i := range all {
		m := &all[i]
		want, wantErr := appendMsg([]byte{0xee}, m)
		got, err := AppendMsgs([]byte{0xee}, all[i:i+1])
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%+v: AppendMsgs fails with %v, appendMsg with %v", *m, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: AppendMsgs writes % x, appendMsg % x", *m, got, want)
		}
	}
	// A whole batch, valid messages of every ingest type and a read among
	// them, into a buffer that starts without room.
	var batch []Msg
	for i, m := range all {
		if _, err := appendMsg(nil, &m); err == nil && i%7 == 0 {
			batch = append(batch, m, Hello(i, i%64), QueryV2(QuerySeries, 0, 0))
		}
	}
	var want []byte
	for i := range batch {
		want, _ = appendMsg(want, &batch[i])
	}
	got, err := AppendMsgs(nil, batch)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a batch of %d messages: AppendMsgs differs from appendMsg (error %v)", len(batch), err)
	}
}

// TestEncodeAckedBatchAllocs checks that a client's steady-state batch
// encode allocates nothing once its encoder has held a batch that size.
func TestEncodeAckedBatchAllocs(t *testing.T) {
	ms := testIngest(true, 1<<14, 300)
	enc := NewEncoder(io.Discard)
	if err := enc.EncodeAckedBatch(ms); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := enc.EncodeAckedBatch(ms); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodeAckedBatch allocates %v times per batch on a warmed encoder", allocs)
	}
}
