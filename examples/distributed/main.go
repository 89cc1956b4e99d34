// Distributed: the protocol as a real networked system. A server listens
// on a TCP loopback socket; 5,000 concurrent client goroutines dial in,
// announce their sampled order, and stream wire-format reports for 128
// periods, then wait for the server's answer to one read. The server is
// transport.IngestServer over a sharded collector, the engine behind
// cmd/rtf-serve: it decodes every frame under the Boolean ingest
// contract and aggregates into per-connection counter shards; the
// example prints online estimates once it has drained. Only the dial
// address would change in a deployment.
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/transport"
	"rtf/internal/wire"
	"rtf/internal/workload"
)

const (
	users   = 5000
	periods = 128
	k       = 2
	eps     = 1.0
)

func main() {
	w, err := (workload.UniformGen{N: users, D: periods, K: k}).Generate(rng.NewFromSeed(31))
	if err != nil {
		log.Fatal(err)
	}
	truth := w.Truth()

	factories, err := protocol.FutureRandFactories(periods, k, eps)
	if err != nil {
		log.Fatal(err)
	}
	acc := protocol.NewSharded(periods, protocol.EstimatorScale(periods, factories[0].CGap()), 4)
	srv := transport.NewIngestServer(transport.NewShardedCollector(acc))
	srv.ErrorLog = func(err error) { log.Print(err) }

	ready, served := make(chan net.Addr, 1), make(chan error, 1)
	go func() { served <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	var addr string
	select {
	case a := <-ready:
		addr = a.String()
	case err := <-served:
		log.Fatal(err)
	}
	fmt.Println("server listening on", addr)

	// Clients: each user dials, runs Algorithm 1 and streams reports. A
	// semaphore caps concurrent sockets below typical fd limits.
	base := rng.NewFromSeed(77)
	sem := make(chan struct{}, 200)
	var clientWG sync.WaitGroup
	for u := 0; u < users; u++ {
		clientWG.Add(1)
		go func(u int, g *rng.RNG) {
			defer clientWG.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()
			enc := wire.NewEncoder(conn)
			c := protocol.NewClient(u, periods, factories, g)
			if err := enc.Encode(wire.Hello(u, c.Order())); err != nil {
				log.Fatal(err)
			}
			vals := w.Users[u].Values(periods)
			for t := 1; t <= periods; t++ {
				if rep, ok := c.Observe(vals[t-1] != 0); ok {
					if err := enc.Encode(wire.FromReport(rep)); err != nil {
						log.Fatal(err)
					}
				}
			}
			// The server handles a connection's frames in order, so its
			// answer to a read is its word that every report before it is
			// applied: a client that has it may hang up.
			if err := enc.Encode(wire.QueryV2(wire.QueryPoint, periods, 0)); err != nil {
				log.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				log.Fatal(err)
			}
			if _, err := wire.NewDecoder(conn).ReadAnswer(); err != nil {
				log.Fatal(err)
			}
		}(u, base.Derive(uint64(u)))
	}
	clientWG.Wait()
	// Every stream is applied: Shutdown stops listening and returns once
	// the connections have closed.
	if err := srv.Shutdown(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	if err := <-served; err != nil {
		log.Fatal(err)
	}

	fmt.Printf("all %d clients reported (%d registered)\n\n", users, acc.Users())
	fmt.Println("t     truth   estimate")
	for _, t := range []int{16, 64, 128} {
		fmt.Printf("%-5d %-7d %.0f\n", t, truth[t-1], acc.EstimateAt(t))
	}
	fmt.Println("\n(5k users is far below the √n noise floor — run the quickstart for")
	fmt.Println(" an accuracy demo; this example demonstrates the networked pipeline)")
}
