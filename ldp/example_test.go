package ldp_test

import (
	"bytes"
	"fmt"
	"math"

	"rtf/ldp"
	"rtf/workload"
)

// Theorem 4.1's bound, checked on a streamed run: a factory stamps out
// one client per user of a synthetic workload, the server aggregates
// their reports, and the largest error over all periods stays inside
// ErrorBound. Everything is deterministic for fixed seeds.
func ExampleErrorBound() {
	const eps = 1.0
	w, err := workload.Generate(workload.Uniform{N: 10000, D: 64, K: 2}, 1)
	if err != nil {
		panic(err)
	}
	opts := []ldp.Option{ldp.WithEpsilon(eps), ldp.WithSparsity(w.K)}
	srv, err := ldp.NewServer(w.D, opts...)
	if err != nil {
		panic(err)
	}
	factory, err := ldp.NewClientFactory(w.D, opts...)
	if err != nil {
		panic(err)
	}
	for u, us := range w.Users {
		c, err := factory.NewClient(u, int64(u)+7)
		if err != nil {
			panic(err)
		}
		if err := srv.Register(c.Order()); err != nil {
			panic(err)
		}
		for _, v := range us.Values(w.D) {
			if rep, ok := c.Observe(v == 1); ok {
				if err := srv.Ingest(rep); err != nil {
					panic(err)
				}
			}
		}
	}
	est, truth := srv.Estimates(), w.Truth()
	maxErr := 0.0
	for t := range est {
		maxErr = math.Max(maxErr, math.Abs(est[t]-float64(truth[t])))
	}
	bound, err := ldp.ErrorBound(w.N, w.D, w.K, eps, 0.05)
	if err != nil {
		panic(err)
	}
	fmt.Println("periods:", len(est))
	fmt.Println("within theoretical bound:", maxErr <= bound)
	// Output:
	// periods: 64
	// within theoretical bound: true
}

// The streaming API: one client per user, one server; reports flow one
// period at a time and estimates are available online. Mechanism and
// parameters are functional options; the default is FutureRand.
func ExampleClient() {
	const d = 8
	srv, err := ldp.NewServer(d, ldp.WithEpsilon(1))
	if err != nil {
		panic(err)
	}
	for u := 0; u < 100; u++ {
		c, err := ldp.NewClient(u, d, ldp.WithEpsilon(1), ldp.WithSeed(int64(u)))
		if err != nil {
			panic(err)
		}
		if err := srv.Register(c.Order()); err != nil {
			panic(err)
		}
		for t := 1; t <= d; t++ {
			if rep, ok := c.Observe(true); ok {
				if err := srv.Ingest(rep); err != nil {
					panic(err)
				}
			}
		}
	}
	fmt.Println("users:", srv.Users())
	fmt.Println("estimates:", len(srv.Estimates()))
	// Output:
	// users: 100
	// estimates: 8
}

// The client of the served protocol: a Conn queues each user's hello
// and randomized reports and ships them as one acknowledged batch frame
// — into a buffer here, over a TCP connection to rtf-serve in a
// deployment, where Fence and Answer also read the server's acks and
// answers.
func ExampleConn() {
	const d = 8
	var wire bytes.Buffer
	conn, err := ldp.NewConn(&wire, d)
	if err != nil {
		panic(err)
	}
	factory, err := ldp.NewClientFactory(d)
	if err != nil {
		panic(err)
	}
	for u := 0; u < 100; u++ {
		c, err := factory.NewClient(u, int64(u))
		if err != nil {
			panic(err)
		}
		if err := conn.Hello(u, c.Order()); err != nil {
			panic(err)
		}
		for t := 1; t <= d; t++ {
			if r, ok := c.Observe(true); ok {
				if err := conn.Report(r); err != nil {
					panic(err)
				}
			}
		}
	}
	fmt.Println("queued:", conn.Queued())
	if err := conn.Send(); err != nil {
		panic(err)
	}
	fmt.Println("queued after Send:", conn.Queued())
	fmt.Println("bytes written:", conn.BytesWritten())
	// Output:
	// queued: 464
	// queued after Send: 0
	// bytes written: 2123
}

// Any built-in mechanism runs behind the same streaming API: here the
// Erlingsson et al. baseline streams reports into a server that answers
// the unified query shapes — a point estimate, the net change over a
// window, and a sub-series — through one Answer entry point.
func ExampleServer_Answer() {
	const d, k, n = 16, 2, 4000
	opts := []ldp.Option{ldp.WithMechanism(ldp.Erlingsson), ldp.WithSparsity(k), ldp.WithEpsilon(1)}
	srv, err := ldp.NewServer(d, opts...)
	if err != nil {
		panic(err)
	}
	factory, err := ldp.NewClientFactory(d, opts...)
	if err != nil {
		panic(err)
	}
	for u := 0; u < n; u++ {
		c, err := factory.NewClient(u, int64(u))
		if err != nil {
			panic(err)
		}
		if err := srv.Register(c.Order()); err != nil {
			panic(err)
		}
		for t := 1; t <= d; t++ {
			if rep, ok := c.Observe(t > d/2); ok { // everyone flips on at t=9
				if err := srv.Ingest(rep); err != nil {
					panic(err)
				}
			}
		}
	}
	point, err := srv.Answer(ldp.PointQuery(d))
	if err != nil {
		panic(err)
	}
	change, err := srv.Answer(ldp.ChangeQuery(d/2+1, d))
	if err != nil {
		panic(err)
	}
	window, err := srv.Answer(ldp.WindowQuery(1, d/2))
	if err != nil {
		panic(err)
	}
	fmt.Printf("mechanism: %s\n", srv.Mechanism())
	fmt.Printf("final count ≈ n: %v\n", point.Value > 0.5*n && point.Value < 1.5*n)
	fmt.Printf("change ≈ n: %v\n", change.Value > 0.5*n && change.Value < 1.5*n)
	fmt.Printf("window length: %d\n", len(window.Series))
	// Output:
	// mechanism: erlingsson
	// final count ≈ n: true
	// change ≈ n: true
	// window length: 8
}

// Domain-valued tracking: the richer-domain extension runs any
// streaming framework mechanism over a finite item catalogue. Each
// user's DomainClient samples one target item and streams its
// indicator; the DomainServer keeps one accumulator per item, scales
// estimates by m, and answers item series and top-k heavy-hitter
// queries — the same engines that serve online traffic (rtf-serve -m).
func ExampleDomainServer() {
	w, err := ldp.GenerateDomain(5000, 32, 4, 2, 1.5, 11)
	if err != nil {
		panic(err)
	}
	opts := []ldp.Option{ldp.WithEpsilon(1), ldp.WithSparsity(w.K)}
	srv, err := ldp.NewDomainServer(w.D, w.M, opts...)
	if err != nil {
		panic(err)
	}
	factory, err := ldp.NewDomainClientFactory(w.D, w.M, opts...)
	if err != nil {
		panic(err)
	}
	for u, us := range w.Users {
		c, err := factory.NewClient(u, int64(u)+3)
		if err != nil {
			panic(err)
		}
		if err := srv.Register(c.Item(), c.Order()); err != nil {
			panic(err)
		}
		for _, v := range us.Values(w.D) {
			r, ok, err := c.Observe(v)
			if err != nil {
				panic(err)
			}
			if ok {
				if err := srv.Ingest(r); err != nil {
					panic(err)
				}
			}
		}
	}
	series, err := srv.Answer(ldp.SeriesItemQuery(0))
	if err != nil {
		panic(err)
	}
	top, err := srv.TopK(w.D, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("items:", srv.M())
	fmt.Println("periods:", len(series.Series))
	fmt.Println("top-k size:", len(top))
	// Output:
	// items: 4
	// periods: 32
	// top-k size: 2
}

// CGap exposes the exact preservation constant behind Theorem 4.4: it
// decays as Θ(ε/√k), not Θ(ε/k).
func ExampleCGap() {
	c16, _ := ldp.CGap(16, 1.0)
	c64, _ := ldp.CGap(64, 1.0)
	// Quadrupling k halves c_gap (√k scaling).
	fmt.Printf("ratio: %.2f\n", c16/c64)
	// Output:
	// ratio: 1.93
}
