package ldp

import (
	"math"
	"strings"
	"testing"

	"rtf/internal/central"
	"rtf/internal/rng"
	"rtf/internal/wire"
	"rtf/workload"
)

// TestQueryKindWireValues pins the ldp query kinds to the transport wire
// encoding: the unchecked conversions in cmd/rtf-sim rely on the two
// enums agreeing value for value.
func TestQueryKindWireValues(t *testing.T) {
	pairs := []struct {
		pub  QueryKind
		wire wire.QueryKind
	}{
		{Point, wire.QueryPoint},
		{Change, wire.QueryChange},
		{Series, wire.QuerySeries},
		{Window, wire.QueryWindow},
	}
	for _, p := range pairs {
		if int(p.pub) != int(p.wire) {
			t.Errorf("kind %s: ldp value %d, wire value %d", p.pub, int(p.pub), int(p.wire))
		}
	}
}

// allProtocols is every built-in mechanism.
var allProtocols = []Protocol{FutureRand, Independent, Bun, Erlingsson, NaiveSplit, CentralBinary}

func TestRegistryContents(t *testing.T) {
	ms := Mechanisms()
	if len(ms) < len(allProtocols) {
		t.Fatalf("%d mechanisms registered, want >= %d", len(ms), len(allProtocols))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Protocol >= ms[i].Protocol {
			t.Fatalf("Mechanisms() not sorted: %q before %q", ms[i-1].Protocol, ms[i].Protocol)
		}
	}
	for _, p := range allProtocols {
		m, ok := Lookup(p)
		if !ok {
			t.Fatalf("built-in %q not registered", p)
		}
		if m.Clients == nil || m.Server == nil {
			t.Errorf("%q: every built-in mechanism needs client and server factories", p)
		}
		if m.Description == "" {
			t.Errorf("%q: empty description", p)
		}
		if m.Caps.Sharded && m.EstimatorScale == nil {
			t.Errorf("%q: sharded without estimator scale", p)
		}
	}
	fr, _ := Lookup(FutureRand)
	if !fr.Caps.ErrorBound || !fr.Caps.Sharded {
		t.Errorf("futurerand caps incomplete: %+v", fr.Caps)
	}
	erl, _ := Lookup(Erlingsson)
	if erl.Caps.ErrorBound || !erl.Caps.Sharded {
		t.Errorf("erlingsson caps wrong: %+v", erl.Caps)
	}
	if _, ok := Lookup("nonexistent"); ok {
		t.Error("Lookup found an unregistered mechanism")
	}
}

func TestRegisterValidation(t *testing.T) {
	clients := func(Params) (ClientBuilder, error) { return nil, nil }
	server := func(Params) (ServerEngine, error) { return nil, nil }
	cases := []struct {
		name string
		m    Mechanism
	}{
		{"empty name", Mechanism{Clients: clients, Server: server}},
		{"duplicate", Mechanism{Protocol: FutureRand, Clients: clients, Server: server}},
		{"no client factory", Mechanism{Protocol: "x-no-clients", Server: server}},
		{"no server factory", Mechanism{Protocol: "x-no-server", Clients: clients}},
		{"sharded without scale", Mechanism{
			Protocol: "x-shard", Clients: clients, Server: server, Caps: Capabilities{Sharded: true},
		}},
		{"domain without sharding", Mechanism{
			Protocol: "x-domain", Clients: clients, Server: server, Caps: Capabilities{Domain: true},
		}},
		{"bound without func", Mechanism{
			Protocol: "x-bound", Clients: clients, Server: server, Caps: Capabilities{ErrorBound: true},
		}},
	}
	for _, c := range cases {
		if err := Register(c.m); err == nil {
			t.Errorf("%s: Register accepted %+v", c.name, c.m)
		}
	}
}

func TestUnknownMechanismErrors(t *testing.T) {
	if _, err := NewServer(16, WithMechanism("bogus")); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("NewServer: got %v", err)
	}
	if _, err := NewClient(0, 16, WithMechanism("bogus")); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("NewClient: got %v", err)
	}
	if _, err := NewClientFactory(16, WithMechanism("bogus")); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("NewClientFactory: got %v", err)
	}
}

// TestStreamingAllMechanisms runs every built-in protocol through the
// streaming Client/Server path — the acceptance criterion that every
// Protocol constant is constructible through the registry — and answers
// all four query shapes.
func TestStreamingAllMechanisms(t *testing.T) {
	const n, d, k = 2000, 32, 2
	for _, p := range allProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			opts := []Option{WithMechanism(p), WithSparsity(k), WithEpsilon(1), WithSeed(99)}
			srv, err := NewServer(d, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if srv.Mechanism() != p {
				t.Fatalf("mechanism %q", srv.Mechanism())
			}
			factory, err := NewClientFactory(d, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				c, err := factory.NewClient(u, int64(u))
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.Register(c.Order()); err != nil {
					t.Fatal(err)
				}
				for tt := 1; tt <= d; tt++ {
					// Everyone turns on at t = d/2+1: one change, within k.
					if rep, ok := c.Observe(tt > d/2); ok {
						if err := srv.Ingest(rep); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if srv.Users() != n {
				t.Fatalf("users %d, want %d", srv.Users(), n)
			}

			series, err := srv.Answer(SeriesQuery())
			if err != nil {
				t.Fatal(err)
			}
			if len(series.Series) != d {
				t.Fatalf("series length %d", len(series.Series))
			}
			point, err := srv.Answer(PointQuery(d))
			if err != nil {
				t.Fatal(err)
			}
			// All n users hold 1 over the second half. Local mechanisms at
			// this small n carry noise of the order of n itself (σ ≈
			// scale·√n per interval), so the band is loose for them; the
			// central mechanism's Laplace noise is tiny and checked tight.
			band := 4.0 * n
			if p == CentralBinary {
				band = 0.2 * n
			}
			if math.Abs(point.Value-n) > band {
				t.Errorf("final point estimate %v far from truth %d", point.Value, n)
			}
			change, err := srv.Answer(ChangeQuery(d/2, d))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(change.Value-n) > band {
				t.Errorf("change estimate %v far from truth %d", change.Value, n)
			}
			window, err := srv.Answer(WindowQuery(d/4, d/2))
			if err != nil {
				t.Fatal(err)
			}
			if len(window.Series) != d/2-d/4+1 {
				t.Fatalf("window length %d", len(window.Series))
			}
			for i, v := range window.Series {
				if v != series.Series[d/4-1+i] {
					t.Fatalf("window[%d] = %v differs from series", i, v)
				}
			}
			// The shims answer through the same engine.
			if est, err := srv.EstimateAt(d); err != nil || est != point.Value {
				t.Errorf("EstimateAt: %v, %v vs %v", est, err, point.Value)
			}
			if ch, err := srv.EstimateChange(d/2, d); err != nil || ch != change.Value {
				t.Errorf("EstimateChange: %v, %v vs %v", ch, err, change.Value)
			}
		})
	}
}

func TestQueryValidation(t *testing.T) {
	srv, err := NewServer(16)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Query{
		PointQuery(0),
		PointQuery(17),
		ChangeQuery(0, 4),
		ChangeQuery(4, 17),
		ChangeQuery(9, 5),
		WindowQuery(0, 4),
		WindowQuery(5, 3),
		{Kind: QueryKind(42)},
	}
	for _, q := range bad {
		if _, err := srv.Answer(q); err == nil {
			t.Errorf("query %+v accepted", q)
		}
	}
	for _, q := range []Query{PointQuery(1), ChangeQuery(1, 16), SeriesQuery(), WindowQuery(16, 16)} {
		if _, err := srv.Answer(q); err != nil {
			t.Errorf("query %+v rejected: %v", q, err)
		}
	}
}

func TestIngestRejectsNegativeUser(t *testing.T) {
	for _, p := range allProtocols {
		srv, err := NewServer(16, WithMechanism(p), WithSparsity(1), WithEpsilon(1))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := srv.Ingest(Report{User: -1, Order: 0, J: 1, Bit: 1}); err == nil {
			t.Errorf("%s: negative user accepted", p)
		}
		factory, err := NewClientFactory(16, WithMechanism(p), WithSparsity(1), WithEpsilon(1))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if _, err := factory.NewClient(-1, 1); err == nil {
			t.Errorf("%s: negative-user client accepted", p)
		}
	}
}

func TestStreamingConstructorErrors(t *testing.T) {
	// Clipping is a framework-mechanism feature.
	for _, p := range []Protocol{Erlingsson, NaiveSplit, CentralBinary} {
		if _, err := NewClippedClient(0, 16, WithMechanism(p)); err == nil {
			t.Errorf("%s: clipped client accepted", p)
		}
	}
	// Clipped framework clients still work through options.
	if _, err := NewClippedClient(0, 16, WithMechanism(Bun), WithSparsity(2)); err != nil {
		t.Errorf("bun clipped client rejected: %v", err)
	}
	// Bad parameters surface from every mechanism's validation.
	for _, p := range allProtocols {
		if _, err := NewServer(15, WithMechanism(p)); err == nil {
			t.Errorf("%s: non-power-of-two d accepted", p)
		}
		if _, err := NewServer(16, WithMechanism(p), WithEpsilon(0)); err == nil {
			t.Errorf("%s: eps=0 accepted", p)
		}
	}
}

// TestCentralSeedDeterminism checks the central mechanism's server-side
// noise is fixed by the seed: same seed, same answers; different seed,
// different answers.
func TestCentralSeedDeterminism(t *testing.T) {
	const d = 16
	build := func(seed int64) *Server {
		srv, err := NewServer(d, WithMechanism(CentralBinary), WithSparsity(1), WithEpsilon(1), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 50; u++ {
			if err := srv.Register(0); err != nil {
				t.Fatal(err)
			}
			for tt := 1; tt <= d; tt++ {
				if err := srv.Ingest(Report{User: u, Order: 0, J: tt, Bit: 1}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return srv
	}
	a, b, c := build(7), build(7), build(8)
	ae, be, ce := a.Estimates(), b.Estimates(), c.Estimates()
	same := true
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, ae[i], be[i])
		}
		if ae[i] != ce[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
	// Repeated queries are consistent (noise is fixed, not redrawn).
	x1, err := a.EstimateAt(d)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := a.EstimateAt(d)
	if err != nil {
		t.Fatal(err)
	}
	if x1 != x2 {
		t.Error("central estimate changed between queries")
	}
}

// TestCentralStreamingEqualsOffline: the central curator exists once.
// A streaming CentralBinary server fed every user's true value every
// period answers, at every period, bit-for-bit what the offline
// central.BinaryMechanism.Run computes under the same seed.
func TestCentralStreamingEqualsOffline(t *testing.T) {
	const d, k, seed = 64, 3, 21
	w, err := workload.Generate(workload.Uniform{N: 500, D: d, K: k}, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithMechanism(CentralBinary), WithSparsity(k), WithEpsilon(0.5), WithSeed(seed)}
	srv, err := NewServer(d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := NewClientFactory(d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for u, us := range w.Users {
		c, err := factory.NewClient(u, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(c.Order()); err != nil {
			t.Fatal(err)
		}
		for _, v := range us.Values(d) {
			r, ok := c.Observe(v == 1)
			if !ok {
				t.Fatal("a central client skipped a period")
			}
			if err := srv.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := central.BinaryMechanism{D: d, K: k, Eps: 0.5}.Run(w, rng.NewFromSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	for tt := 1; tt <= d; tt++ {
		got, err := srv.EstimateAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want[tt-1]) {
			t.Fatalf("t=%d: streaming %v, offline %v", tt, got, want[tt-1])
		}
	}
}
