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

// TestClusterClientBasics covers the round-trip operations of a leased
// backend connection. (The pool is ReplicaClient; the tests of this file
// keep the names they had when a fixed backend list had a client type of
// its own.)
func TestClusterClientBasics(t *testing.T) {
	addr, stop := startSumsServer(t, 16, 2)
	defer stop()
	c := NewReplicaClient(ClusterOptions{})
	defer c.Close()
	bc, err := c.Lease(addr)
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
	c.Release(addr, bc, true)
}

// TestClusterClientPool checks the pool recycles healthy connections,
// and that an unhealthy release purges the backend's whole idle pool so
// retries dial fresh instead of picking up another corpse.
func TestClusterClientPool(t *testing.T) {
	addr, stop := startSumsServer(t, 16, 2)
	defer stop()
	c := NewReplicaClient(ClusterOptions{PoolSize: 2})
	defer c.Close()

	a, err := c.Lease(addr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Lease(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(addr, a, true)
	got, err := c.Lease(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatal("healthy release was not recycled by the next lease")
	}
	// Pool = [got(=a)] after this; an unhealthy release must purge it.
	c.Release(addr, got, true)
	c.Release(addr, b, false)
	fresh, err := c.Lease(addr)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == a || fresh == b {
		t.Fatal("lease after an unhealthy release returned a stale pooled connection")
	}
	c.Release(addr, fresh, true)
	// A full pool closes the extra healthy release instead of leaking.
	x, _ := c.Lease(addr)
	y, _ := c.Lease(addr)
	z, err := c.Lease(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(addr, x, true)
	c.Release(addr, y, true)
	c.Release(addr, z, true) // pool size 2: z must be closed
	if err := fence(z); err == nil {
		t.Fatal("connection released into a full pool was left open")
	}
}

// TestReplicaClientDropWhileLeased pins what happens to a connection
// that is out on lease when its address is dropped (the member left the
// view): releasing it healthy must close it, not re-create the dropped
// pool and park the connection there until the client closes.
func TestReplicaClientDropWhileLeased(t *testing.T) {
	addr, stop := startSumsServer(t, 16, 2)
	defer stop()
	c := NewReplicaClient(ClusterOptions{})
	defer c.Close()
	bc, err := c.Lease(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Drop(addr)
	c.Release(addr, bc, true)
	if err := fence(bc); err == nil {
		t.Fatal("a connection released after its address was dropped was left open")
	}
	c.mu.Lock()
	_, pooled := c.idle[addr]
	c.mu.Unlock()
	if pooled {
		t.Fatal("releasing a connection re-created the pool of a dropped address")
	}
	// The address works again once something leases it.
	again, err := c.Lease(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := fence(again); err != nil {
		t.Fatal(err)
	}
	c.Release(addr, again, true)
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
	c := NewReplicaClient(ClusterOptions{
		DialAttempts: 3,
		BackoffBase:  time.Millisecond,
		BackoffMax:   2 * time.Millisecond,
		DialTimeout:  100 * time.Millisecond,
	})
	defer c.Close()
	start := time.Now()
	_, err = c.Lease(dead)
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
