package transport

import (
	"net"
	"strings"
	"testing"
	"time"

	"rtf/internal/protocol"
)

func startSumsServer(t *testing.T, d int, scale float64) (string, func()) {
	t.Helper()
	srv := NewIngestServer(NewShardedCollector(protocol.NewSharded(d, scale, 2)))
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()
	return addr, func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestClusterClientBasics covers construction, routing and the
// round-trip operations of a leased backend connection.
func TestClusterClientBasics(t *testing.T) {
	if _, err := NewClusterClient(nil, ClusterOptions{}); err == nil {
		t.Error("accepted a cluster with no backends")
	}
	addr, stop := startSumsServer(t, 16, 2)
	defer stop()
	c, err := NewClusterClient([]string{addr, addr, addr}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.N() != 3 || c.Addr(1) != addr {
		t.Fatalf("N=%d Addr(1)=%s", c.N(), c.Addr(1))
	}
	for user, want := range map[int]int{0: 0, 1: 1, 5: 2, 6: 0} {
		if got := c.Route(user); got != want {
			t.Errorf("Route(%d) = %d, want %d", user, got, want)
		}
	}
	bc, err := c.Lease(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.SendBatch([]Msg{Hello(1, 2), FromReport(protocol.Report{User: 1, Order: 0, J: 3, Bit: 1})}); err != nil {
		t.Fatal(err)
	}
	if err := fence(bc); err != nil {
		t.Fatal(err)
	}
	f, err := bc.FetchSums(BoolMode(16, 1), -1, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if users, _, _ := f.Row(0); f.D != 16 || users != 1 {
		t.Fatalf("bad sums frame %+v", f)
	}
	c.Release(0, bc, true)
}

// TestClusterClientPool checks the pool recycles healthy connections,
// and that an unhealthy release purges the backend's whole idle pool so
// retries dial fresh instead of picking up another corpse.
func TestClusterClientPool(t *testing.T) {
	addr, stop := startSumsServer(t, 16, 2)
	defer stop()
	c, err := NewClusterClient([]string{addr}, ClusterOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a, err := c.Lease(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Lease(0)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(0, a, true)
	got, err := c.Lease(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatal("healthy release was not recycled by the next lease")
	}
	// Pool = [got(=a)] after this; an unhealthy release must purge it.
	c.Release(0, got, true)
	c.Release(0, b, false)
	fresh, err := c.Lease(0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == a || fresh == b {
		t.Fatal("lease after an unhealthy release returned a stale pooled connection")
	}
	c.Release(0, fresh, true)
	// A full pool closes the extra healthy release instead of leaking.
	x, _ := c.Lease(0)
	y, _ := c.Lease(0)
	z, err := c.Lease(0)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(0, x, true)
	c.Release(0, y, true)
	c.Release(0, z, true) // pool size 2: z must be closed
	if err := fence(z); err == nil {
		t.Fatal("connection released into a full pool was left open")
	}
}

// TestClusterClientDialBackoff checks Lease retries a dead backend
// across attempts and fails with a descriptive error once the budget
// is spent.
func TestClusterClientDialBackoff(t *testing.T) {
	// A listener we immediately close: the port is (very likely) dead.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	c, err := NewClusterClient([]string{dead}, ClusterOptions{
		DialAttempts: 3,
		BackoffBase:  time.Millisecond,
		BackoffMax:   2 * time.Millisecond,
		DialTimeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Lease(0)
	if err == nil {
		t.Fatal("leased a connection to a dead backend")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error %q does not report the attempt budget", err)
	}
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("3 attempts finished in %v: no backoff between them", elapsed)
	}
}

// fence proves the backend applied everything sent earlier on bc, the
// way a gateway does before a reshard: a smallest-scope sums fetch
// (which reads under any scale, so the mode only has to name the frame).
func fence(bc *BackendConn) error {
	_, err := bc.FetchSums(BoolMode(16, 1), -1, Scope{1, 1})
	return err
}
