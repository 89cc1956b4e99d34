package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"rtf/internal/wire"
)

// driver is the client side of every server-driving scenario: it ships
// the mode's users over TCP, keeps the mode's in-process reference in
// step with what the server took, and verifies answers against it.
type driver struct {
	mode  mode
	n     int // users in the workload
	conns int
	batch int

	mu      sync.Mutex // guards the mode's reference and the counters
	reports int64
	bytes   int64
}

// send ships users [lo, hi) to addr over the driver's parallel
// connections in legacy batch frames of -batch messages, folding the same
// operations into the reference. Each connection ends with a fence, so
// when send returns the server has applied — and a durable server has
// journaled — everything sent.
func (st *driver) send(addr string, lo, hi int) error {
	ship := func(lo, hi int) error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		enc, dec := wire.NewEncoder(conn), wire.NewDecoder(conn)
		buf := make([]wire.Msg, 0, st.batch)
		var sent int64
		for u := lo; u < hi; u++ {
			ms, fold, err := st.mode.user(u)
			if err != nil {
				return err
			}
			for _, m := range ms {
				if buf = append(buf, m); len(buf) == st.batch {
					if err := enc.EncodeBatch(buf); err != nil {
						return err
					}
					buf = buf[:0]
				}
			}
			// One lock per user, not per report: counter ingestion is
			// commutative integer addition, so the reference's estimates
			// do not depend on the order users fold in.
			st.mu.Lock()
			err = fold()
			st.mu.Unlock()
			if err != nil {
				return err
			}
			sent += int64(len(ms) - 1)
		}
		if len(buf) > 0 {
			if err := enc.EncodeBatch(buf); err != nil {
				return err
			}
		}
		if err := enc.Flush(); err != nil {
			return err
		}
		raw := enc.BytesWritten()
		if err := st.mode.fence(enc, dec); err != nil {
			return fmt.Errorf("fence query: %w", err)
		}
		st.mu.Lock()
		st.reports += sent
		st.bytes += raw
		st.mu.Unlock()
		return nil
	}
	per := (hi - lo + st.conns - 1) / st.conns
	errs := make(chan error, st.conns)
	for c := 0; c < st.conns; c++ {
		go func(lo, hi int) {
			if lo >= hi {
				errs <- nil
				return
			}
			errs <- ship(lo, hi)
		}(lo+c*per, min(lo+(c+1)*per, hi))
	}
	var first error
	for c := 0; c < st.conns; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// verify checks every query shape of the mode through addr against the
// reference and returns the number of values compared bit-for-bit.
func (st *driver) verify(addr string) (int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	return st.mode.verify(wire.NewEncoder(conn), wire.NewDecoder(conn))
}

// doom starts a stream that is meant to die: batches of phantom hellos
// for the users next yields, written to addr until the connection fails
// or stop — which waits for the stream to end — closes it. A kill -9
// under it lands mid-ingest, while frames are being journaled and
// applied, rather than on a quiescent server. Phantom hellos hit the WAL
// and the user counters but never the interval sums, so however many
// survive the crash — or are re-forwarded by a gateway's at-least-once
// retry — every estimate stays exactly the reference's. (Unfenced
// reports could not be used: the driver cannot know which became
// durable.)
func (st *driver) doom(addr string, next func() int) (stop func(), err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		enc := wire.NewEncoder(conn)
		batch := make([]wire.Msg, 64)
		for {
			for i := range batch {
				batch[i] = st.mode.phantom(next())
			}
			if enc.EncodeBatch(batch) != nil || enc.Flush() != nil {
				return // the connection was cut under us: done
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the stream get going
	return func() {
		conn.Close()
		<-done
	}, nil
}

// summary prints the closing lines every scenario shares.
func (st *driver) summary(name string, elapsed time.Duration, checked int) {
	fmt.Printf("%s %v n=%d conns=%d batch=%d\n", name, st.mode.serveFlags(), st.n, st.conns, st.batch)
	fmt.Printf("reports    %d (%d users), %d wire bytes (%.1f B/report)\n",
		st.reports, st.n, st.bytes, float64(st.bytes)/float64(max(st.reports, 1)))
	fmt.Printf("elapsed    %v (%.0f reports/s)\n", elapsed.Round(time.Millisecond), float64(st.reports)/elapsed.Seconds())
	fmt.Printf("checked    %d values bit-for-bit identical to the in-process engine at the final stage alone\n", checked)
}
