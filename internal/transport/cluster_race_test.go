package transport

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtf/internal/protocol"
)

// TestClusterClientConcurrentRestart hammers Lease/Release — including
// deliberate unhealthy releases, which purge the backend's whole idle
// pool — from many goroutines while the backend is killed and
// restarted on the same address mid-run. Under -race this pins the
// pool's concurrency safety; the assertions pin its liveness: workers
// make progress before the kill and again after the restart, and a
// purged pool never hands out a stale pre-restart connection as
// healthy (every post-restart fence must round-trip).
func TestClusterClientConcurrentRestart(t *testing.T) {
	// Serve(l) leaves listener ownership with the caller, so the kill
	// below closes both the listener (freeing the port for the restart)
	// and the server (severing every open connection).
	newServer := func(addr string) (*IngestServer, net.Listener, string) {
		srv := NewIngestServer(NewShardedCollector(protocol.NewSharded(16, 2, 2)))
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("listening on %q: %v", addr, err)
		}
		go srv.Serve(l)
		return srv, l, l.Addr().String()
	}
	srv, ln, addr := newServer("127.0.0.1:0")

	c := NewReplicaClient(ClusterOptions{
		PoolSize:     4,
		DialAttempts: 3,
		BackoffBase:  2 * time.Millisecond,
	})
	defer c.Close()

	const workers = 16
	var (
		wg         sync.WaitGroup
		stop       atomic.Bool
		restarted  atomic.Bool // flipped once the new process is serving
		preKill    atomic.Int64
		postResume atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				bc, err := c.Lease(addr)
				if err != nil {
					continue // the down window: every dial attempt refused
				}
				err = fence(bc)
				if err == nil && rng.Intn(4) == 0 {
					// A deliberate unhealthy release of a live connection:
					// purges the idle pool out from under the other workers,
					// who must transparently re-dial.
					c.Release(addr, bc, false)
					continue
				}
				c.Release(addr, bc, err == nil)
				if err != nil {
					continue
				}
				if restarted.Load() {
					postResume.Add(1)
				} else {
					preKill.Add(1)
				}
			}
		}(w)
	}

	// Let the workers churn, kill the backend (closing it severs every
	// open and pooled connection), leave a down window, restart on the
	// same address, then let the workers churn against the new process.
	time.Sleep(100 * time.Millisecond)
	ln.Close()
	if err := srv.Close(); err != nil {
		t.Errorf("closing first server: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	srv, ln, _ = newServer(addr)
	restarted.Store(true)
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if preKill.Load() == 0 {
		t.Error("no successful round-trips before the backend was killed")
	}
	if postResume.Load() == 0 {
		t.Error("no successful round-trips after the backend restarted")
	}

	// The pool must now be coherent: drain up to PoolSize idle
	// connections and fence each — a stale pre-restart connection handed
	// out as healthy would fail here.
	for i := 0; i < 4; i++ {
		bc, err := c.Lease(addr)
		if err != nil {
			t.Fatalf("lease %d after restart: %v", i, err)
		}
		if err := fence(bc); err != nil {
			t.Fatalf("lease %d after restart handed out a dead connection: %v", i, err)
		}
		defer c.Release(addr, bc, true)
	}
	ln.Close()
	if err := srv.Close(); err != nil {
		t.Errorf("closing restarted server: %v", err)
	}
}
