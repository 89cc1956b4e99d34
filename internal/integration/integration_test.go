// Package integration runs cross-module scenarios: the full pipeline
// from workload through clients, wire transport and server to estimates
// and post-processing, asserting invariants that no single package can
// check alone.
package integration

import (
	"bytes"
	"io"
	"math"
	"net"
	"sync"
	"testing"

	"rtf/internal/consistency"
	"rtf/internal/dyadic"
	"rtf/internal/eval"
	"rtf/internal/probmath"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/sim"
	"rtf/internal/stats"
	"rtf/internal/wire"
	"rtf/internal/workload"
)

// TestWirePathEqualsDirectPath runs the same seeded clients twice — once
// ingesting reports directly, once serializing every report through the
// wire format and back — and requires bit-identical estimates.
func TestWirePathEqualsDirectPath(t *testing.T) {
	const n, d, k = 300, 64, 3
	w, err := (workload.UniformGen{N: n, D: d, K: k}).Generate(rng.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	factories, err := protocol.FutureRandFactories(d, k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	scale := protocol.EstimatorScale(d, factories[0].CGap())

	run := func(viaWire bool) []float64 {
		srv := protocol.NewServer(d, scale)
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		g := rng.New(42, 43) // same client randomness both times
		for u, us := range w.Users {
			c := protocol.NewClient(u, d, factories, g)
			srv.Register(c.Order())
			vals := us.Values(d)
			for tt := 1; tt <= d; tt++ {
				rep, ok := c.Observe(vals[tt-1] != 0)
				if !ok {
					continue
				}
				if viaWire {
					if err := enc.Encode(wire.FromReport(rep)); err != nil {
						t.Fatal(err)
					}
				} else {
					srv.Ingest(rep)
				}
			}
		}
		if viaWire {
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			dec := wire.NewDecoder(&buf)
			for {
				m, err := dec.Next()
				if err != nil {
					break
				}
				srv.Ingest(m.Report())
			}
		}
		return srv.EstimateSeries()
	}

	direct := run(false)
	raw := run(true)
	for i := range direct {
		if direct[i] != raw[i] {
			t.Fatalf("estimates diverge at t=%d: direct %v, wire %v", i+1, direct[i], raw[i])
		}
	}
}

// TestConcurrentClientsThroughCollector runs every client in its own
// goroutine, funnels reports through the collector, and checks the
// result is a valid protocol execution (unbiasedness within noise).
func TestConcurrentClientsThroughCollector(t *testing.T) {
	const n, d, k = 500, 32, 2
	w, err := (workload.UniformGen{N: n, D: d, K: k}).Generate(rng.New(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	factories, err := protocol.FutureRandFactories(d, k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	srv := protocol.NewServer(d, protocol.EstimatorScale(d, factories[0].CGap()))
	coll := eval.NewCollector()
	base := rng.New(5, 6)

	var wg sync.WaitGroup
	for u := 0; u < n; u++ {
		wg.Add(1)
		go func(u int, g *rng.RNG) {
			defer wg.Done()
			c := protocol.NewClient(u, d, factories, g)
			if err := coll.Send(wire.Hello(u, c.Order())); err != nil {
				t.Error(err)
				return
			}
			vals := w.Users[u].Values(d)
			for tt := 1; tt <= d; tt++ {
				if rep, ok := c.Observe(vals[tt-1] != 0); ok {
					if err := coll.Send(wire.FromReport(rep)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(u, base.Derive(uint64(u)))
	}
	wg.Wait()
	coll.Drain(func(m wire.Msg) {
		switch m.Type {
		case wire.MsgHello:
			srv.Register(m.Order)
		case wire.MsgReport:
			srv.Ingest(m.Report())
		}
	})
	if srv.Users() != n {
		t.Fatalf("registered %d users, want %d", srv.Users(), n)
	}
	est := srv.EstimateSeries()
	truth := w.Truth()
	// Not a statistical test (single run): just require the estimate to
	// be within the generous Hoeffding bound, which holds w.p. ≥ 95%.
	bound, err := probmath.TheoreticalBound(n, d, k, 1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.MaxAbsError(est, truth); e > bound {
		t.Errorf("max error %v exceeds bound %v", e, bound)
	}
}

// TestNetPipeTransport streams a client's full report sequence through
// an in-memory network connection (net.Pipe) and checks the server
// receives exactly what was sent.
func TestNetPipeTransport(t *testing.T) {
	const d, k = 32, 2
	factories, err := protocol.FutureRandFactories(d, k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := net.Pipe()
	var sent []protocol.Report
	go func() {
		defer clientEnd.Close()
		enc := wire.NewEncoder(clientEnd)
		g := rng.New(11, 12)
		c := protocol.NewClient(3, d, factories, g)
		if err := enc.Encode(wire.Hello(3, c.Order())); err != nil {
			t.Error(err)
			return
		}
		vals := []uint8{0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		for tt := 1; tt <= d; tt++ {
			if rep, ok := c.Observe(vals[tt-1] != 0); ok {
				sent = append(sent, rep)
				if err := enc.Encode(wire.FromReport(rep)); err != nil {
					t.Error(err)
					return
				}
			}
		}
		if err := enc.Flush(); err != nil {
			t.Error(err)
		}
	}()

	dec := wire.NewDecoder(serverEnd)
	var gotHello bool
	var got []protocol.Report
	for {
		m, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch m.Type {
		case wire.MsgHello:
			gotHello = true
		case wire.MsgReport:
			got = append(got, m.Report())
		}
	}
	serverEnd.Close()
	if !gotHello {
		t.Error("hello not received")
	}
	if len(got) != len(sent) {
		t.Fatalf("received %d reports, sent %d", len(got), len(sent))
	}
	for i := range sent {
		if got[i] != sent[i] {
			t.Fatalf("report %d: got %+v, sent %+v", i, got[i], sent[i])
		}
	}
}

// TestConsistencyPreservesOnlineSeriesStructure checks the post-processed
// tree produces a series whose per-step increments match the consistent
// leaf values — i.e. post-processing commutes with the prefix structure.
func TestConsistencyPreservesOnlineSeriesStructure(t *testing.T) {
	const d = 32
	tr := dyadic.NewTree(d)
	g := rng.New(7, 8)
	est := make([]float64, tr.Size())
	for i := range est {
		est[i] = g.Normal() * 3
	}
	vars := make([]float64, dyadic.NumOrders(d))
	for h := range vars {
		vars[h] = 2
	}
	smooth := consistency.Smooth(tr, est, vars)
	series := consistency.SeriesFromTree(tr, smooth)
	for tt := 1; tt <= d; tt++ {
		prev := 0.0
		if tt > 1 {
			prev = series[tt-2]
		}
		leaf := smooth[tr.FlatIndex(dyadic.Interval{Order: 0, Index: tt})]
		if math.Abs((series[tt-1]-prev)-leaf) > 1e-9 {
			t.Fatalf("increment at t=%d is %v, leaf %v", tt, series[tt-1]-prev, leaf)
		}
	}
}

// TestAllWorkloadsAllSystems is a broad smoke matrix: every generator ×
// every system must run and produce a full series.
func TestAllWorkloadsAllSystems(t *testing.T) {
	g := rng.New(9, 10)
	const n, d, k = 200, 16, 2
	gens := []workload.Generator{
		workload.UniformGen{N: n, D: d, K: k},
		workload.MaxChangesGen{N: n, D: d, K: k},
		workload.BurstyGen{N: n, D: d, K: k, Start: 4, End: 8, InBurst: 0.9},
		workload.ZipfActivityGen{N: n, D: d, K: k, S: 1.1},
		workload.StepGen{N: n, D: d, T0: 8, Jitter: 2, Fraction: 0.5},
		workload.AdversarialGen{N: n, D: d, K: k},
		workload.PeriodicGen{N: n, D: d, K: k, Period: 5},
		workload.StaticGen{N: n, D: d},
	}
	systems := []sim.System{
		sim.Framework{Kind: protocol.FutureRand, Eps: 0.5, Fast: true},
		sim.Framework{Kind: protocol.FutureRand, Eps: 0.5},
		sim.Framework{Kind: protocol.FutureRand, Eps: 0.5, Fast: true, Workers: 3},
		sim.Framework{Kind: protocol.Independent, Eps: 0.5, Fast: true},
		sim.Framework{Kind: protocol.Bun, Eps: 0.5, Fast: true},
		sim.Consistent{Framework: sim.Framework{Kind: protocol.FutureRand, Eps: 0.5, Fast: true}},
		sim.Erlingsson{Eps: 0.5, Fast: true},
		sim.Erlingsson{Eps: 0.5},
		sim.NaiveSplit{Eps: 0.5, Fast: true},
		sim.Central{Eps: 0.5},
	}
	for _, gen := range gens {
		wl, err := gen.Generate(g.Split())
		if err != nil {
			t.Fatalf("%s: %v", gen.Name(), err)
		}
		for _, sys := range systems {
			est, err := sys.Run(wl, g.Split())
			if err != nil {
				t.Errorf("%s on %s: %v", sys.Name(), gen.Name(), err)
				continue
			}
			if len(est) != d {
				t.Errorf("%s on %s: series length %d", sys.Name(), gen.Name(), len(est))
			}
			for i, v := range est {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s on %s: estimate[%d] = %v", sys.Name(), gen.Name(), i, v)
					break
				}
			}
		}
	}
}
