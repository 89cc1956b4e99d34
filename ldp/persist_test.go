package ldp

import (
	"strings"
	"testing"

	"rtf/workload"
)

// TestDurableMechanismsRoundTrip drives every registered mechanism
// through a snapshot/restore cycle: a server is fed real client reports,
// its state is marshaled, restored into a fresh server built with the
// same options, and every query shape must answer bit-for-bit
// identically.
func TestDurableMechanismsRoundTrip(t *testing.T) {
	const d, n = 64, 120
	w, err := workload.Generate(workload.Uniform{N: n, D: d, K: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Mechanisms() {
		t.Run(string(m.Protocol), func(t *testing.T) {
			opts := []Option{WithMechanism(m.Protocol), WithSparsity(3), WithEpsilon(1), WithSeed(42)}
			src, err := NewServer(d, opts...)
			if err != nil {
				t.Fatal(err)
			}
			factory, err := NewClientFactory(d, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				c, err := factory.NewClient(u, int64(u)+9)
				if err != nil {
					t.Fatal(err)
				}
				if err := src.Register(c.Order()); err != nil {
					t.Fatal(err)
				}
				vals := w.Users[u].Values(d)
				for tt := 1; tt <= d; tt++ {
					if r, ok := c.Observe(vals[tt-1] == 1); ok {
						if err := src.Ingest(r); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			state, err := src.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			dst, err := NewServer(d, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.RestoreState(state); err != nil {
				t.Fatal(err)
			}

			if dst.Users() != src.Users() {
				t.Fatalf("users: %d vs %d", dst.Users(), src.Users())
			}
			queries := []Query{
				PointQuery(1), PointQuery(d / 2), PointQuery(d),
				ChangeQuery(1, d), ChangeQuery(d/4+1, d/2),
				SeriesQuery(), WindowQuery(d/2, d),
			}
			for _, q := range queries {
				want, err := src.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dst.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Value != want.Value || len(got.Series) != len(want.Series) {
					t.Fatalf("%v: got %+v, want %+v", q, got, want)
				}
				for i := range got.Series {
					if got.Series[i] != want.Series[i] {
						t.Fatalf("%v: series[%d] %v vs %v", q, i, got.Series[i], want.Series[i])
					}
				}
			}

			// A mismatched configuration must be rejected, not misread.
			if other, err := NewServer(d*2, opts...); err == nil {
				if err := other.RestoreState(state); err == nil {
					t.Error("restore into a d*2 server accepted")
				}
			}
			if err := dst.RestoreState(state[:len(state)/2]); err == nil {
				t.Error("truncated state accepted")
			}
		})
	}
}

// TestCentralRestorePinsParameters: the central engine's noise table is
// regenerated from (seed, d, k, eps) at construction, so restoring
// state into an engine built under different parameters must fail —
// silently answering with different noise would break the bit-for-bit
// contract.
func TestCentralRestorePinsParameters(t *testing.T) {
	const d = 32
	opts := func(extra ...Option) []Option {
		return append([]Option{WithMechanism(CentralBinary), WithSparsity(2), WithEpsilon(1), WithSeed(7)}, extra...)
	}
	src, err := NewServer(d, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Register(0); err != nil {
		t.Fatal(err)
	}
	state, err := src.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	same, err := NewServer(d, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := same.RestoreState(state); err != nil {
		t.Fatalf("same parameters rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"different seed", WithSeed(8)},
		{"different eps", WithEpsilon(0.5)},
		{"different k", WithSparsity(3)},
	} {
		other, err := NewServer(d, opts(tc.opt)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := other.RestoreState(state); err == nil || !strings.Contains(err.Error(), "noise checksum") {
			t.Errorf("%s: got %v, want noise-checksum rejection", tc.name, err)
		}
	}
}
