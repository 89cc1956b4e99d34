// Distributed: the protocol as a real networked system. A server listens
// on a TCP loopback socket; 5,000 concurrent client goroutines dial in,
// announce their sampled order, and stream wire-format reports for 128
// periods. The server decodes, aggregates and prints online estimates.
// This is the same code path a production deployment would use — only
// the dial address would change.
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/transport"
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
	srv := protocol.NewServer(periods, protocol.EstimatorScale(periods, factories[0].CGap()))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	fmt.Println("server listening on", addr)

	// Server: accept every connection, decode messages, aggregate.
	var serverWG sync.WaitGroup
	var mu sync.Mutex // guards srv across connection goroutines
	serverWG.Add(1)
	go func() {
		defer serverWG.Done()
		var connWG sync.WaitGroup
		for i := 0; i < users; i++ {
			conn, err := ln.Accept()
			if err != nil {
				log.Fatal(err)
			}
			connWG.Add(1)
			go func(conn net.Conn) {
				defer connWG.Done()
				defer conn.Close()
				dec := transport.NewDecoder(conn)
				for {
					m, err := dec.Next()
					if err == io.EOF {
						return
					}
					if err != nil {
						log.Fatal(err)
					}
					mu.Lock()
					switch m.Type {
					case transport.MsgHello:
						srv.Register(m.Order)
					case transport.MsgReport:
						srv.Ingest(m.Report())
					}
					mu.Unlock()
				}
			}(conn)
		}
		connWG.Wait()
	}()

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
			enc := transport.NewEncoder(conn)
			c := protocol.NewClient(u, periods, factories, g)
			if err := enc.Encode(transport.Hello(u, c.Order())); err != nil {
				log.Fatal(err)
			}
			vals := w.Users[u].Values(periods)
			for t := 1; t <= periods; t++ {
				if rep, ok := c.Observe(vals[t-1] != 0); ok {
					if err := enc.Encode(transport.FromReport(rep)); err != nil {
						log.Fatal(err)
					}
				}
			}
			if err := enc.Flush(); err != nil {
				log.Fatal(err)
			}
		}(u, base.Derive(uint64(u)))
	}
	clientWG.Wait()
	serverWG.Wait()
	ln.Close()

	fmt.Printf("all %d clients reported (%d registered)\n\n", users, srv.Users())
	fmt.Println("t     truth   estimate")
	for _, t := range []int{16, 64, 128} {
		fmt.Printf("%-5d %-7d %.0f\n", t, truth[t-1], srv.EstimateAt(t))
	}
	fmt.Println("\n(5k users is far below the √n noise floor — run the quickstart for")
	fmt.Println(" an accuracy demo; this example demonstrates the networked pipeline)")
}
