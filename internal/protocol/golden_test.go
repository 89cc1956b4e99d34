package protocol

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
)

// The state payloads below are what every durable data directory and
// every reshard transfer carries: kind 1 (one dyadic accumulator) and
// kind 3 (one per domain item). They are pinned as bytes; a change here
// makes existing snapshots unreadable.
const (
	goldenKind1 = "01010800000000000006400804040200020f020000000000000100040000000101"
	goldenKind3 = "0103032101010800000000000006400204020000000f0200010000000001000000000000002101010800000000000006400204000200000f0000000000000000000400000000002101010800000000000006400404020000020f000002000000000000000000000101"
)

// goldenWrites is a fixed handful of hellos and reports over d = 8,
// m = 3 items and two shards.
var goldenWrites = []struct {
	shard, item int
	hello       bool
	r           Report
}{
	{0, 0, true, Report{Order: 0}},
	{1, 2, true, Report{Order: 3}},
	{1, 1, true, Report{Order: 1}},
	{0, 2, true, Report{Order: 0}},
	{0, 0, false, Report{Order: 0, J: 1, Bit: 1}},
	{1, 0, false, Report{Order: 0, J: 3, Bit: -1}},
	{0, 2, false, Report{Order: 0, J: 3, Bit: 1}},
	{1, 2, false, Report{Order: 3, J: 1, Bit: -1}},
	{0, 1, false, Report{Order: 1, J: 2, Bit: 1}},
	{1, 1, false, Report{Order: 1, J: 2, Bit: 1}},
	{1, 0, false, Report{Order: 0, J: 8, Bit: -1}},
	{0, 2, false, Report{Order: 2, J: 2, Bit: -1}},
}

// TestStateGoldenBytes pins the kind-1 payload of Sharded and Server
// (which must be equal) and the kind-3 payload of DomainSharded, in
// both directions: state → bytes, and bytes → restore → the same
// estimates, bit for bit, and the same bytes again.
func TestStateGoldenBytes(t *testing.T) {
	const d, m, scale = 8, 3, 2.75
	acc := NewSharded(d, scale, 2)
	srv := NewServer(d, scale)
	dom := NewDomainSharded(d, m, scale, 2)
	for _, w := range goldenWrites {
		if w.hello {
			acc.Register(w.shard, w.r.Order)
			srv.Register(w.r.Order)
			dom.Register(w.shard, w.item, w.r.Order)
			continue
		}
		acc.Ingest(w.shard, w.r)
		srv.Ingest(w.r)
		dom.Ingest(w.shard, w.item, w.r)
	}

	kind1, err := hex.DecodeString(goldenKind1)
	if err != nil {
		t.Fatal(err)
	}
	kind3, err := hex.DecodeString(goldenKind3)
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.MarshalState(); !bytes.Equal(got, kind1) {
		t.Errorf("Sharded.MarshalState = %x, want %s", got, goldenKind1)
	}
	if got := srv.MarshalState(); !bytes.Equal(got, kind1) {
		t.Errorf("Server.MarshalState = %x, want %s", got, goldenKind1)
	}
	if got := dom.MarshalState(); !bytes.Equal(got, kind3) {
		t.Errorf("DomainSharded.MarshalState = %x, want %s", got, goldenKind3)
	}

	accBack, srvBack, domBack := NewSharded(d, scale, 3), NewServer(d, scale), NewDomainSharded(d, m, scale, 1)
	if err := accBack.RestoreState(kind1); err != nil {
		t.Fatalf("Sharded.RestoreState: %v", err)
	}
	if err := srvBack.RestoreState(kind1); err != nil {
		t.Fatalf("Server.RestoreState: %v", err)
	}
	if err := domBack.RestoreState(kind3); err != nil {
		t.Fatalf("DomainSharded.RestoreState: %v", err)
	}
	same := func(what string, tt int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s at t=%d: restored %v, live %v", what, tt, got, want)
		}
	}
	for tt := 1; tt <= d; tt++ {
		same("Sharded.EstimateAt", tt, accBack.EstimateAt(tt), acc.EstimateAt(tt))
		same("Server.EstimateAt", tt, srvBack.EstimateAt(tt), acc.EstimateAt(tt))
		for x := 0; x < m; x++ {
			same("DomainSharded.EstimateAt", tt, domBack.EstimateAt(x, tt), dom.EstimateAt(x, tt))
		}
	}
	if accBack.Users() != acc.Users() || srvBack.Users() != acc.Users() || domBack.Users() != dom.Users() {
		t.Errorf("restored users %d/%d/%d, live %d/%d", accBack.Users(), srvBack.Users(), domBack.Users(), acc.Users(), dom.Users())
	}
	if !bytes.Equal(accBack.MarshalState(), kind1) || !bytes.Equal(srvBack.MarshalState(), kind1) || !bytes.Equal(domBack.MarshalState(), kind3) {
		t.Error("a restored state re-marshals to different bytes")
	}
}
