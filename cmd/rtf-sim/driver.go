package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"rtf/ldp"
)

// driver is the client side of every server-driving scenario: it ships
// the mode's users over TCP through ldp.Conn, keeps the mode's
// in-process reference in step with what the server took, and verifies
// answers against it.
type driver struct {
	mode  *mode
	n     int // users in the workload
	conns int
	batch int

	mu      sync.Mutex // guards the mode's reference and the counters
	reports int64
	bytes   int64
}

// dial opens a client of the mode on addr; closing nc ends it.
func (st *driver) dial(addr string) (c *ldp.Conn, nc net.Conn, err error) {
	if nc, err = net.Dial("tcp", addr); err != nil {
		return nil, nil, err
	}
	if c, err = st.mode.conn(nc); err != nil {
		nc.Close()
		return nil, nil, err
	}
	return c, nc, nil
}

// send ships users [lo, hi) to addr over the driver's parallel
// connections in acked batches of whole users, -batch messages or just
// over, folding the same operations into the reference. Each connection
// ends with a fence, so when send returns the server has applied — and a
// durable server has journaled — everything sent.
func (st *driver) send(addr string, lo, hi int) error {
	ship := func(lo, hi int) error {
		c, nc, err := st.dial(addr)
		if err != nil {
			return err
		}
		defer nc.Close()
		var sent int64
		for u := lo; u < hi; u++ {
			us, err := st.mode.user(u)
			if err != nil {
				return err
			}
			if err := us.send(c); err != nil {
				return err
			}
			if c.Queued() >= st.batch {
				if err := c.Send(); err != nil {
					return err
				}
			}
			// One lock per user, not per report: counter ingestion is
			// commutative integer addition, so the reference's estimates
			// do not depend on the order users fold in.
			st.mu.Lock()
			err = us.fold()
			st.mu.Unlock()
			if err != nil {
				return err
			}
			sent += int64(us.msgs - 1)
		}
		if acks, err := c.Fence(); err != nil || slices.Contains(acks, false) {
			return fmt.Errorf("fence: verdicts %v, error %v (checking every answer needs a server that sheds no batch)", acks, err)
		}
		st.mu.Lock()
		st.reports += sent
		st.bytes += c.BytesWritten()
		st.mu.Unlock()
		return nil
	}
	per := (hi - lo + st.conns - 1) / st.conns
	return fanOut(st.conns, func(c int) error {
		if lo, hi := lo+c*per, min(lo+(c+1)*per, hi); lo < hi {
			return ship(lo, hi)
		}
		return nil
	})
}

// fanOut runs f(0), …, f(n−1) concurrently and returns the first error
// any of them returns, once all have.
func fanOut(n int, f func(i int) error) error {
	errs := make(chan error, n)
	for i := range n {
		go func() { errs <- f(i) }()
	}
	var first error
	for range n {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// verify asks every query shape of the mode through addr and returns the
// number of values it compared, each bit for bit, with the reference's
// answer.
func (st *driver) verify(addr string) (int, error) {
	c, nc, err := st.dial(addr)
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	checked := 0
	for _, q := range st.mode.queries {
		what := fmt.Sprintf("%s query (t=%d, l=%d, r=%d, item=%d, k=%d)", q.Kind, q.T, q.L, q.R, q.Item, q.K)
		got, err := c.Answer(q)
		want, refErr := st.mode.answer(q)
		if err = errors.Join(err, refErr); err != nil {
			return 0, fmt.Errorf("%s: %w", what, err)
		}
		g, w := append(got.Series, got.Value), append(want.Series, want.Value)
		if !slices.Equal(got.Items, want.Items) || !slices.EqualFunc(g, w, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return 0, fmt.Errorf("%s: server %+v, in-process %+v", what, got, want)
		}
		checked += len(got.Items) + len(got.Series)
		if q.Kind == ldp.Point || q.Kind == ldp.Change || q.Kind == ldp.PointItem {
			checked++
		}
	}
	return checked, nil
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
	c, nc, err := st.dial(addr)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			for range 64 {
				if st.mode.phantom(c, next()) != nil {
					return
				}
			}
			if c.Send() != nil {
				return // the connection was cut under us: done
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the stream get going
	return func() {
		nc.Close()
		<-done
	}, nil
}

// summary prints the closing lines every scenario shares.
func (st *driver) summary(name string, elapsed time.Duration, checked int) {
	fmt.Printf("%s %v n=%d conns=%d batch=%d\n", name, st.mode.flags, st.n, st.conns, st.batch)
	fmt.Printf("reports    %d (%d users), %d wire bytes (%.1f B/report)\n",
		st.reports, st.n, st.bytes, float64(st.bytes)/float64(max(st.reports, 1)))
	fmt.Printf("elapsed    %v (%.0f reports/s)\n", elapsed.Round(time.Millisecond), float64(st.reports)/elapsed.Seconds())
	fmt.Printf("checked    %d values bit-for-bit identical to the in-process engine at the final stage alone\n", checked)
}
