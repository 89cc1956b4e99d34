package sim

import (
	"math"
	"slices"
	"testing"

	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// bits returns the Float64bits of each value.
func bits(vs ...float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestFastEngineGolden pins the fast engines' outputs bit for bit at
// fixed seeds on a small workload: the series of each System and the
// interval reads of the accumulator RunServer returns. Every table built on these engines is a function of these
// draws, so a change here moves the experiments' numbers.
func TestFastEngineGolden(t *testing.T) {
	w := genUniform(t, 60, 8, 2)
	fw := Framework{Kind: protocol.FutureRand, Eps: 1}
	cases := []struct {
		name string
		sys  System
		want []uint64
	}{
		{"futurerand-fast", fw, []uint64{
			0x0, 0x0, 0x0, 0x407ec942c8cc8388, 0x4084862c85ddad05, 0x407ec942c8cc8388, 0x4084862c85ddad05, 0x407ec942c8cc8388}},
		{"erlingsson-fast", Erlingsson{Eps: 1}, []uint64{
			0x405054fad97bc8db, 0x405054fad97bc8db, 0x407054fad97bc8db, 0xc0646a398fdabb12, 0xc07674d8eb0a342d, 0xc07e9f5657c8189b, 0xc0725f9a34ab41f7, 0x40587f784639ad48}},
		{"futurerand-fast+consistent", Consistent{fw}, []uint64{
			0x4068d552af454ab3, 0x40513c98a59e76b8, 0x407425819759dfde, 0x406eeb60fedcea10, 0x406e5788bf40831d, 0x406dc3b07fa41c2a, 0x40756f504ca31448, 0x407bfcc859741a7c}},
	}
	for _, tc := range cases {
		est, err := tc.sys.Run(w, rng.New(101, 102))
		if err != nil {
			t.Fatal(err)
		}
		if got := bits(est...); !slices.Equal(got, tc.want) {
			t.Errorf("%s: series bits\n got %#x\nwant %#x", tc.name, got, tc.want)
		}
	}
	srv, err := fw.RunServer(w, rng.New(103, 104))
	if err != nil {
		t.Fatal(err)
	}
	got := bits(srv.EstimateAt(1), srv.EstimateAt(5), srv.EstimateAt(8),
		srv.EstimateChange(2, 5), srv.EstimateChange(3, 8), srv.EstimateChange(1, 8))
	want := []uint64{0xc06ec942c8cc8388, 0xc07ec942c8cc8388, 0x406ec942c8cc8388, 0xc08716f2169962a6, 0xc074862c85ddad05, 0x406ec942c8cc8388}
	if !slices.Equal(got, want) {
		t.Errorf("RunServer reads\n got %#x\nwant %#x", got, want)
	}
}
