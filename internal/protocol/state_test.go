package protocol

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"rtf/internal/rng"
)

// fillServer ingests a deterministic pile of reports.
func fillServer(s *Server, g *rng.RNG, n int) {
	maxOrder := len(s.perOrder) - 1
	for i := 0; i < n; i++ {
		order := g.IntN(maxOrder + 1)
		s.Register(order)
		j := 1 + g.IntN(s.d>>uint(order))
		bit := int8(1)
		if g.Uint64()&1 == 0 {
			bit = -1
		}
		s.Ingest(Report{User: i, Order: order, J: j, Bit: bit})
	}
}

func TestServerStateRoundTrip(t *testing.T) {
	const d, scale = 128, 13.5
	src := NewServer(d, scale)
	fillServer(src, rng.NewFromSeed(7), 500)

	state := src.MarshalState()
	dst := NewServer(d, scale)
	if err := dst.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if dst.Users() != src.Users() {
		t.Fatalf("users: %d vs %d", dst.Users(), src.Users())
	}
	for h := range src.perOrder {
		if dst.UsersAtOrder(h) != src.UsersAtOrder(h) {
			t.Fatalf("order %d: %d vs %d", h, dst.UsersAtOrder(h), src.UsersAtOrder(h))
		}
	}
	wantSeries := src.EstimateSeries()
	for i, got := range dst.EstimateSeries() {
		if got != wantSeries[i] {
			t.Fatalf("series[%d]: %v vs %v", i, got, wantSeries[i])
		}
	}
	if got, want := dst.EstimateChange(17, 100), src.EstimateChange(17, 100); got != want {
		t.Fatalf("change: %v vs %v", got, want)
	}
}

func TestShardedStateRoundTrip(t *testing.T) {
	const d, scale = 64, 3.25
	src := NewSharded(d, scale, 4)
	g := rng.NewFromSeed(11)
	for i := 0; i < 300; i++ {
		order := g.IntN(7)
		src.Register(i, order)
		j := 1 + g.IntN(d>>uint(order))
		bit := int8(1)
		if g.Uint64()&1 == 0 {
			bit = -1
		}
		src.Ingest(i, Report{User: i, Order: order, J: j, Bit: bit})
	}
	state := src.MarshalState()

	// Sharded -> Sharded, with a different shard count: shard layout
	// must not affect the state or the estimates.
	dst := NewSharded(d, scale, 9)
	if err := dst.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if dst.Users() != src.Users() {
		t.Fatalf("users: %d vs %d", dst.Users(), src.Users())
	}
	wantSeries := src.EstimateSeries()
	for i, got := range dst.EstimateSeries() {
		if got != wantSeries[i] {
			t.Fatalf("series[%d]: %v vs %v", i, got, wantSeries[i])
		}
	}

	// Sharded -> Server: the encoding is shared.
	srv := NewServer(d, scale)
	if err := srv.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	for i, got := range srv.EstimateSeries() {
		if got != wantSeries[i] {
			t.Fatalf("server series[%d]: %v vs %v", i, got, wantSeries[i])
		}
	}
	if got, want := string(srv.MarshalState()), string(state); got != want {
		t.Fatal("server re-marshal differs from sharded marshal")
	}
}

func TestStateRestoreRejects(t *testing.T) {
	src := NewServer(64, 2.0)
	fillServer(src, rng.NewFromSeed(3), 50)
	state := src.MarshalState()

	cases := []struct {
		name  string
		dst   *Server
		state []byte
		want  string
	}{
		{"d mismatch", NewServer(128, 2.0), state, "horizon"},
		{"scale mismatch", NewServer(64, 3.0), state, "estimator scale"},
		{"truncated", NewServer(64, 2.0), state[:len(state)-2], "truncated"},
		{"trailing", NewServer(64, 2.0), append(append([]byte(nil), state...), 0), "trailing"},
		{"empty", NewServer(64, 2.0), nil, "truncated"},
		{"bad version", NewServer(64, 2.0), append([]byte{99}, state[1:]...), "unsupported state version"},
		{"wrong kind", NewServer(64, 2.0), append([]byte{stateVersion, 99}, state[2:]...), "not a dyadic accumulator"},
	}
	for _, tc := range cases {
		err := tc.dst.RestoreState(tc.state)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
		if tc.dst.Users() != 0 {
			t.Errorf("%s: failed restore modified the server", tc.name)
		}
	}
}

func TestNaiveSplitStateRoundTrip(t *testing.T) {
	const d = 32
	src := NewNaiveSplitServer(d, 0.8)
	g := rng.NewFromSeed(5)
	for i := 0; i < 100; i++ {
		src.Register()
		bit := int8(1)
		if g.Uint64()&1 == 0 {
			bit = -1
		}
		src.Ingest(NaiveReport{User: i, T: 1 + g.IntN(d), Bit: bit})
	}
	state := src.MarshalState()
	dst := NewNaiveSplitServer(d, 0.8)
	if err := dst.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	for tt := 1; tt <= d; tt++ {
		if got, want := dst.EstimateAt(tt), src.EstimateAt(tt); got != want {
			t.Fatalf("t=%d: %v vs %v", tt, got, want)
		}
	}

	if err := NewNaiveSplitServer(d, 0.9).RestoreState(state); err == nil || !strings.Contains(err.Error(), "c_gap") {
		t.Fatalf("c_gap mismatch: %v", err)
	}
	if err := NewNaiveSplitServer(64, 0.8).RestoreState(state); err == nil {
		t.Fatal("d mismatch accepted")
	}
	if err := dst.RestoreState(state[:3]); err == nil {
		t.Fatal("truncated state accepted")
	}
}

// MarshalDomainState serializes a set of per-item servers as one kind-3
// payload: a domain header (kind, item count) followed by each item's
// kind-1 dyadic state, length-prefixed — the payload DomainSharded
// writes for a matrix fed the same reports. It is the oracle
// TestDomainShardedMatchesPerItemLayout pins DomainSharded.MarshalState
// against.
func MarshalDomainState(items []*Server) []byte {
	b := make([]byte, 0, 16)
	b = append(b, stateVersion, stateKindDomain)
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, s := range items {
		st := s.MarshalState()
		b = binary.AppendUvarint(b, uint64(len(st)))
		b = append(b, st...)
	}
	return b
}

// RestoreDomainState folds a kind-3 payload into the given per-item
// servers. The payload's item count must equal len(items) and every
// per-item payload must match its server's horizon and scale; on any
// error nothing past the failing item is modified.
func RestoreDomainState(items []*Server, b []byte) error {
	r, err := readDomainHeader(b, len(items))
	if err != nil {
		return err
	}
	for x, srv := range items {
		payload, err := r.item(x)
		if err != nil {
			return err
		}
		if err := srv.RestoreState(payload); err != nil {
			return fmt.Errorf("protocol: item %d: %w", x, err)
		}
	}
	return r.end()
}
