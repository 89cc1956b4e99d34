// Distributed: the protocol as a real networked system. A server listens
// on a TCP loopback socket; 5,000 client goroutines, at most 200 of them
// connected at once, each dial in and run ldp.Conn, the client of the
// served protocol: it announces the user's sampled order, ships the
// user's reports for 128 periods as one acknowledged batch, and fences —
// the server's answer to one read certifies the batch is applied. The
// server is transport.IngestServer over a sharded collector, the engine
// behind cmd/rtf-serve: it decodes every frame under the Boolean ingest
// contract and aggregates into per-connection counter shards; the
// example prints online estimates once it has drained. Only the dial
// address would change in a deployment.
package main

import (
	"fmt"
	"log"
	"net"
	"slices"
	"sync"
	"time"

	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/ldp"
	"rtf/workload"
)

const (
	users   = 5000
	periods = 128
	k       = 2
	eps     = 1.0
)

func main() {
	w, err := workload.Generate(workload.Uniform{N: users, D: periods, K: k}, 31)
	if err != nil {
		log.Fatal(err)
	}
	truth := w.Truth()

	factory, err := ldp.NewClientFactory(periods, ldp.WithSparsity(k), ldp.WithEpsilon(eps))
	if err != nil {
		log.Fatal(err)
	}
	mech, _ := ldp.Lookup(ldp.FutureRand)
	scale, err := mech.EstimatorScale(ldp.Params{D: periods, K: k, Eps: eps})
	if err != nil {
		log.Fatal(err)
	}
	acc := protocol.NewSharded(periods, scale, 4)
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

	// Clients: each user dials, runs Algorithm 1 and ships its reports. A
	// semaphore caps concurrent sockets below typical fd limits.
	sem := make(chan struct{}, 200)
	var clientWG sync.WaitGroup
	for u := 0; u < users; u++ {
		clientWG.Add(1)
		go func(u int) {
			defer clientWG.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				log.Fatal(err)
			}
			defer nc.Close()
			conn, err := ldp.NewConn(nc, periods)
			if err != nil {
				log.Fatal(err)
			}
			c, err := factory.NewClient(u, 77+int64(u))
			if err != nil {
				log.Fatal(err)
			}
			if err := conn.Hello(u, c.Order()); err != nil {
				log.Fatal(err)
			}
			for _, v := range w.Users[u].Values(periods) {
				if rep, ok := c.Observe(v != 0); ok {
					if err := conn.Report(rep); err != nil {
						log.Fatal(err)
					}
				}
			}
			// A client whose fence returns may hang up: the server applied
			// every batch the verdicts say it did.
			if acks, err := conn.Fence(); err != nil || slices.Contains(acks, false) {
				log.Fatalf("user %d: fence verdicts %v, %v", u, acks, err)
			}
		}(u)
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
