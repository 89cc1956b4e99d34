// Comparison: the paper's headline claim on one workload. With k = 128
// changes per user, FutureRand's √k error beats both baselines whose
// error is linear in k (Erlingsson et al. and the ε/k composition) —
// the crossover against the ε/k composition sits near k ≈ 40 at ε = 1.
// The central-model mechanism shows what a trusted curator could do
// instead. Every mechanism runs through the same streaming clients and
// server; the offline consistency post-processing, which needs the
// whole interval tree after the fact, is measured by experiment E10
// (rtf-experiments -exp E10) and rtf-sim -consistency.
package main

import (
	"fmt"
	"log"
	"math"

	"rtf/ldp"
	"rtf/workload"
)

func main() {
	w, err := workload.Generate(workload.MaxChanges{N: 100000, D: 1024, K: 128}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n=%d users, d=%d periods, k=%d changes each, eps=1\n\n", w.N, w.D, w.K)

	// Every registered mechanism competes: adding a protocol to the
	// registry adds its row here.
	truth := w.Truth()
	fmt.Println("protocol                      max error   RMSE")
	for _, m := range ldp.Mechanisms() {
		est, err := track(w, ldp.WithMechanism(m.Protocol), ldp.WithEpsilon(1), ldp.WithSparsity(w.K), ldp.WithSeed(9))
		if err != nil {
			log.Fatal(err)
		}
		maxErr, sq := 0.0, 0.0
		for t, v := range est {
			e := v - float64(truth[t])
			maxErr, sq = math.Max(maxErr, math.Abs(e)), sq+e*e
		}
		fmt.Printf("%-29s %-11.0f %.0f\n", m.Protocol, maxErr, math.Sqrt(sq/float64(len(est))))
	}
	fmt.Println("\nexpected ordering at k=128: futurerand beats both linear-in-k baselines;")
	fmt.Println("the trusted-curator mechanism is far ahead of every local protocol.")
}

// track streams every user of w through one client of the configured
// mechanism into one server and returns the estimated series.
func track(w *workload.Workload, opts ...ldp.Option) ([]float64, error) {
	srv, err := ldp.NewServer(w.D, opts...)
	if err != nil {
		return nil, err
	}
	factory, err := ldp.NewClientFactory(w.D, opts...)
	if err != nil {
		return nil, err
	}
	for u, us := range w.Users {
		c, err := factory.NewClient(u, int64(u))
		if err != nil {
			return nil, err
		}
		if err := srv.Register(c.Order()); err != nil {
			return nil, err
		}
		for _, v := range us.Values(w.D) {
			if rep, ok := c.Observe(v == 1); ok {
				if err := srv.Ingest(rep); err != nil {
					return nil, err
				}
			}
		}
	}
	return srv.Estimates(), nil
}
