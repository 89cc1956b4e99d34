// Quickstart: track how many of 2 million users hold a Boolean flag over
// 64 time periods, under ε = 1 local differential privacy, with the
// paper's FutureRand protocol: one streaming client per user feeds its
// flag in once per period, and the server aggregates the randomized
// reports and answers online.
//
// Local-model noise scales as √n·polylog(d)·√k/ε (Theorem 4.1), so the
// signal — counts of order n — dominates once n is in the millions; this
// example runs in that regime so the tracking is visible to the eye.
package main

import (
	"fmt"
	"log"
	"math"

	"rtf/ldp"
	"rtf/workload"
)

func main() {
	const eps = 1.0
	// Synthetic population: each user flips their flag at most twice.
	w, err := workload.Generate(workload.Uniform{N: 2_000_000, D: 64, K: 2}, 1)
	if err != nil {
		log.Fatal(err)
	}

	opts := []ldp.Option{ldp.WithEpsilon(eps), ldp.WithSparsity(w.K)}
	srv, err := ldp.NewServer(w.D, opts...)
	if err != nil {
		log.Fatal(err)
	}
	// The factory computes FutureRand's randomizer tables once for all
	// 2 million clients.
	factory, err := ldp.NewClientFactory(w.D, opts...)
	if err != nil {
		log.Fatal(err)
	}
	for u, us := range w.Users {
		c, err := factory.NewClient(u, int64(u))
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Register(c.Order()); err != nil {
			log.Fatal(err)
		}
		for _, v := range us.Values(w.D) {
			if rep, ok := c.Observe(v == 1); ok {
				if err := srv.Ingest(rep); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	est, truth := srv.Estimates(), w.Truth()
	fmt.Println("t     truth     estimate   rel err")
	for _, t := range []int{4, 16, 32, 48, 64} {
		a := float64(truth[t-1])
		fmt.Printf("%-5d %-9d %-10.0f %+.1f%%\n", t, truth[t-1], est[t-1], 100*(est[t-1]-a)/a)
	}
	maxErr := 0.0
	for t := range est {
		maxErr = math.Max(maxErr, math.Abs(est[t]-float64(truth[t])))
	}
	bound, err := ldp.ErrorBound(w.N, w.D, w.K, eps, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmax error over all %d periods: %.0f users (%.1f%% of n=%d)\n",
		w.D, maxErr, 100*maxErr/float64(w.N), w.N)
	fmt.Printf("theoretical bound (Theorem 4.1, β=0.05): %.0f\n", bound)
}
