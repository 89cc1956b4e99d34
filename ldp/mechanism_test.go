package ldp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// TestRegistryContents checks the closed table: exactly the six
// built-ins, sorted by protocol name, each well formed.
func TestRegistryContents(t *testing.T) {
	var got []Protocol
	for _, m := range Mechanisms() {
		got = append(got, m.Protocol)
		if m.Clients == nil || (m.Server == nil) == (m.EstimatorScale == nil) {
			t.Errorf("%q: every built-in mechanism needs a client factory and exactly one of EstimatorScale and Server", m.Protocol)
		}
		if m.Description == "" {
			t.Errorf("%q: empty description", m.Protocol)
		}
		if l, ok := Lookup(m.Protocol); !ok || l.Protocol != m.Protocol {
			t.Errorf("Lookup(%q) = %q, %v", m.Protocol, l.Protocol, ok)
		}
	}
	want := slices.Clone(allProtocols)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Mechanisms() = %q, want %q", got, want)
	}
	if _, ok := Lookup("nonexistent"); ok {
		t.Error("Lookup found an unknown mechanism")
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

// TestEveryClientTakesEveryStream feeds every registered mechanism's
// client — the Boolean one, and for a dyadic mechanism the exact and the
// loloha domain client — streams with up to d changes, far past k. No
// client may panic, and each must report at exactly the periods t with
// 2^h | t: a stream past the bound is clipped, never refused, so when a
// user's reports stop is never a function of the user's data.
func TestEveryClientTakesEveryStream(t *testing.T) {
	const d, k, users = 64, 2, 200
	// run feeds one client the d periods of its stream through observe,
	// recovering a panic into an error.
	run := func(order int, observe func(t int) (Report, bool, error)) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		for p := 1; p <= d; p++ {
			r, ok, err := observe(p)
			if err != nil {
				return err
			}
			if want := p%(1<<order) == 0; ok != want {
				return fmt.Errorf("t=%d, order %d: reported %v, want %v", p, order, ok, want)
			}
			if ok && (r.Order != order || r.J != p>>order) {
				return fmt.Errorf("t=%d, order %d: report %+v", p, order, r)
			}
		}
		return nil
	}
	// each runs users clients, failing with how many broke and the first
	// error.
	each := func(t *testing.T, client func(u int) error) {
		failed, first := 0, error(nil)
		for u := 0; u < users; u++ {
			if err := client(u); err != nil {
				failed++
				first = cmp.Or(first, fmt.Errorf("user %d: %w", u, err))
			}
		}
		if failed > 0 {
			t.Fatalf("%d of %d clients failed; first: %v", failed, users, first)
		}
	}
	for _, m := range Mechanisms() {
		opts := []Option{WithMechanism(m.Protocol), WithSparsity(k), WithEpsilon(1)}
		t.Run(string(m.Protocol), func(t *testing.T) {
			t.Run("boolean", func(t *testing.T) {
				f, err := NewClientFactory(d, opts...)
				if err != nil {
					t.Fatal(err)
				}
				each(t, func(u int) error {
					c, err := f.NewClient(u, int64(u))
					if err != nil {
						t.Fatal(err)
					}
					every := 1 + u%8 // the value flips every `every` periods
					return run(c.Order(), func(p int) (Report, bool, error) {
						r, ok := c.Observe(p/every%2 == 1)
						return r, ok, nil
					})
				})
			})
			if !m.Dyadic() {
				return
			}
			for _, enc := range []struct {
				name string
				m    int
				opts []Option
			}{
				{"exact", 16, nil},
				{"loloha", 64, []Option{WithDomainEncoding("loloha"), WithBuckets(4), WithHashSeed(42)}},
			} {
				t.Run(enc.name, func(t *testing.T) {
					f, err := NewDomainClientFactory(d, enc.m, append(enc.opts, opts...)...)
					if err != nil {
						t.Fatal(err)
					}
					each(t, func(u int) error {
						c, err := f.NewClient(u, int64(u))
						if err != nil {
							t.Fatal(err)
						}
						step := 1 + u%3 // the value changes every period
						return run(c.Order(), func(p int) (Report, bool, error) {
							r, ok, err := c.Observe((u*7 + p*step) % enc.m)
							if ok && r.Item != c.Item() {
								err = fmt.Errorf("t=%d: report item %d, client item %d", p, r.Item, c.Item())
							}
							return r.Report, ok, err
						})
					})
				})
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
