package transport

import (
	"fmt"
	"sync"

	"rtf/internal/membership"
)

// This file is the client side of the dynamic-membership cluster: a
// ReplicaClient pools connections per backend address — keyed by
// address rather than by a fixed index, because the member set changes
// across epochs — and BackendConn grows the membership round-trips
// (shard transfer install, view push; a shard's raw sums, for a quorum
// read and for a reshard's export alike, go through FetchSums).
// Placement is the gateway's business (internal/cluster); this layer
// only moves frames.

// TransferShard ships one shard's serialized state to the backend and
// waits for its ack; the backend installs it as the shard's new state
// (replacing any copy it held). A negative ack is an error.
func (b *BackendConn) TransferShard(shard int, state []byte) error {
	if err := b.enc.EncodeShardTransfer(shard, state); err != nil {
		return err
	}
	if err := b.enc.Flush(); err != nil {
		return err
	}
	applied, err := b.dec.ReadMemberAck()
	if err != nil {
		return err
	}
	if !applied {
		return fmt.Errorf("transport: backend refused transfer of shard %d", shard)
	}
	return nil
}

// PushView ships a cluster view to the backend and waits for its ack.
// A negative ack (a stale epoch, from the backend's point of view) is
// an error: the pusher holds an outdated view of the world.
func (b *BackendConn) PushView(v membership.View) error {
	if err := b.enc.EncodeView(v); err != nil {
		return err
	}
	if err := b.enc.Flush(); err != nil {
		return err
	}
	applied, err := b.dec.ReadMemberAck()
	if err != nil {
		return err
	}
	if !applied {
		return fmt.Errorf("transport: backend refused view epoch %d as stale", v.Epoch)
	}
	return nil
}

// connPool is one backend's idle connections.
type connPool chan *BackendConn

// drain closes every idle connection in the pool.
func (p connPool) drain() {
	for {
		select {
		case bc := <-p:
			bc.Close()
		default:
			return
		}
	}
}

// ReplicaClient is the one backend connection pool: idle connections
// keyed by address, so it serves a fixed backend list and a cluster
// whose member set changes across epochs alike — a pool appears on first
// lease and Drop purges a member that left. Lease re-dials a dead
// backend with exponential backoff, so a crashed-and-recovering backend
// stalls its callers instead of failing them. It is safe for concurrent
// use.
type ReplicaClient struct {
	opts ClusterOptions

	mu     sync.Mutex
	idle   map[string]connPool
	closed bool
}

// NewReplicaClient builds a client with no pools yet; pools appear as
// addresses are leased.
func NewReplicaClient(opts ClusterOptions) *ReplicaClient {
	return &ReplicaClient{opts: opts.withDefaults(), idle: make(map[string]connPool)}
}

// Options returns the client's configuration with defaults applied.
func (c *ReplicaClient) Options() ClusterOptions { return c.opts }

// pool returns the idle pool for addr, creating it on first use.
func (c *ReplicaClient) pool(addr string) connPool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.idle[addr]
	if !ok {
		p = make(connPool, c.opts.PoolSize)
		c.idle[addr] = p
	}
	return p
}

// Lease hands out a connection to the backend at addr: a pooled idle
// connection when one is available, otherwise a fresh dial with
// exponential backoff across DialAttempts. The caller owns the
// connection until Release.
func (c *ReplicaClient) Lease(addr string) (*BackendConn, error) {
	select {
	case bc := <-c.pool(addr):
		return bc, nil
	default:
	}
	bc, err := dialBackend(addr, c.opts)
	if err != nil {
		return nil, fmt.Errorf("transport: %s unreachable after %d attempts: %w", addr, c.opts.DialAttempts, err)
	}
	return bc, nil
}

// Release returns a leased connection. A healthy connection goes back
// to the address's pool — or is closed when the pool is full, was
// dropped while the connection was out (the member left; re-creating its
// pool here would park the connection until the client closes) or the
// client closed; an unhealthy one — any connection that saw an error —
// is closed, and the address's whole idle pool is discarded with it: an
// error usually means the backend process died (crash, kill -9), taking
// every pooled connection with it, and retry attempts must reach a fresh
// dial — which waits out a restart via backoff — rather than burn on
// dead pooled connections.
func (c *ReplicaClient) Release(addr string, bc *BackendConn, healthy bool) {
	if bc == nil {
		return
	}
	c.mu.Lock()
	p, closed := c.idle[addr], c.closed
	c.mu.Unlock()
	if healthy && !closed {
		select {
		case p <- bc: // never ready on a dropped (nil) pool
			return
		default:
		}
	}
	bc.Close()
	if !healthy {
		p.drain()
	}
}

// Drop purges and removes the pool for an address (a member that left
// the cluster).
func (c *ReplicaClient) Drop(addr string) {
	c.mu.Lock()
	p := c.idle[addr]
	delete(c.idle, addr)
	c.mu.Unlock()
	p.drain()
}

// Close closes every pooled idle connection and marks the client
// closed (subsequent healthy releases close instead of pooling).
// Leased connections are closed by their holders via Release.
func (c *ReplicaClient) Close() {
	c.mu.Lock()
	c.closed = true
	pools := c.idle
	c.idle = make(map[string]connPool)
	c.mu.Unlock()
	for _, p := range pools {
		p.drain()
	}
}
