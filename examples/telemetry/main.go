// Telemetry: the streaming client/server API in the shape of a real
// deployment. 200,000 devices report whether a feature is enabled; a
// silent rollout flips half the fleet around period 96. Each device runs
// its own ldp.Client (Algorithm 1), reports cross a link that loses 5%
// of them at random, and the server (Algorithm 2) answers online
// estimates while periods are still arriving.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"rtf/ldp"
	"rtf/workload"
)

const (
	devices = 200000
	periods = 256
	maxK    = 1 // a device flips the flag at most once (the rollout)
	eps     = 1.0
	loss    = 0.05
)

func main() {
	// The fleet's true behaviour: a jittered step adoption around t=96.
	w, err := workload.Generate(workload.Step{
		N: devices, D: periods, T0: 96, Jitter: 8, Fraction: 0.5,
	}, 21)
	if err != nil {
		log.Fatal(err)
	}
	truth := w.Truth()

	srv, err := ldp.NewServer(periods, ldp.WithSparsity(maxK), ldp.WithEpsilon(eps))
	if err != nil {
		log.Fatal(err)
	}

	// Device registration: each client announces its sampled order (this
	// is data-independent and safe in the clear). The factory shares the
	// one-time parameter computation across the whole fleet.
	factory, err := ldp.NewClientFactory(periods, ldp.WithSparsity(maxK), ldp.WithEpsilon(eps))
	if err != nil {
		log.Fatal(err)
	}
	clients := make([]*ldp.Client, devices)
	for u := range clients {
		c, err := factory.NewClient(u, int64(u))
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Register(c.Order()); err != nil {
			log.Fatal(err)
		}
		clients[u] = c
	}

	// Live operation: one period at a time, devices report, the network
	// drops ~5% of messages, and the server can answer immediately.
	link := rand.New(rand.NewPCG(5, 5))
	delivered, dropped := 0, 0
	checkpoints := map[int]bool{32: true, 96: true, 112: true, 256: true}
	fmt.Println("t     truth   online estimate (5% report loss, rescaled)")
	for t := 1; t <= periods; t++ {
		for u, c := range clients {
			rep, ok := c.Observe(w.Users[u].ValueAt(t) == 1)
			if !ok {
				continue
			}
			if link.Float64() < loss {
				dropped++
				continue
			}
			delivered++
			if err := srv.Ingest(rep); err != nil {
				log.Fatal(err)
			}
		}
		if checkpoints[t] {
			est, err := srv.EstimateAt(t)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-5d %-7d %.0f\n", t, truth[t-1], est/(1-loss))
		}
	}
	fmt.Printf("\nreports delivered: %d, lost: %d\n", delivered, dropped)
	fmt.Println("the rollout's step at t≈96 is visible despite per-device ε=1 privacy")
}
