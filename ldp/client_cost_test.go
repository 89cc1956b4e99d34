package ldp

import "testing"

// TestClientSteadyStateAllocs pins the client's cost model: once built,
// a streaming client of any of the four dyadic mechanisms observes its
// whole horizon without allocating, and building a FutureRand client at
// k = 8 costs at most four allocations (the ldp.Client, the protocol
// client that holds the randomizer state and the generator by value,
// b̃'s words, and — when R̃(1^k) lands outside the annulus — the subset
// drawn for the complement sample; AllocsPerRun reports the integral
// average).
func TestClientSteadyStateAllocs(t *testing.T) {
	const d, k, runs = 64, 8, 50
	for _, mech := range []Protocol{FutureRand, Bun, Independent, Erlingsson} {
		f, err := NewClientFactory(d, WithMechanism(mech), WithSparsity(k), WithEpsilon(1))
		if err != nil {
			t.Fatal(err)
		}
		// One fresh client per run (a client lives for one horizon), plus
		// the warm-up run AllocsPerRun makes.
		clients := make([]*Client, runs+1)
		for u := range clients {
			if clients[u], err = f.NewClient(u, int64(u)); err != nil {
				t.Fatal(err)
			}
		}
		next, reports := 0, 0
		if n := testing.AllocsPerRun(runs, func() {
			c := clients[next]
			next++
			for p := 1; p <= d; p++ {
				if _, ok := c.Observe(p > 3 && p < 40); ok {
					reports++
				}
			}
		}); n != 0 {
			t.Errorf("%s: Observe over a whole horizon allocates %v times per client, want 0", mech, n)
		}
		if reports == 0 {
			t.Errorf("%s: no client reported", mech)
		}
	}
	f, err := NewClientFactory(1024, WithSparsity(k), WithEpsilon(1))
	if err != nil {
		t.Fatal(err)
	}
	u := 0
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := f.NewClient(u, int64(u)); err != nil {
			t.Fatal(err)
		}
		u++
	}); n > 4 {
		t.Errorf("ClientFactory.NewClient (futurerand, k=%d) allocates %v times, want <= 4", k, n)
	}
}
