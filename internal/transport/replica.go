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
// (shard state export, shard transfer install, view push; per-shard
// sums for quorum reads go through FetchSums). Placement is the member gateway's business
// (internal/cluster); this layer only moves frames.

// FetchShardState round-trips a shard-snapshot request: the backend
// answers with the shard's serialized state (the reshard transfer
// payload).
func (b *BackendConn) FetchShardState(shard int) ([]byte, error) {
	if err := b.enc.Encode(ShardState(shard)); err != nil {
		return nil, err
	}
	if err := b.enc.Flush(); err != nil {
		return nil, err
	}
	return b.dec.ReadShardState(shard)
}

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

// ReplicaClient pools backend connections keyed by address, for a
// cluster whose member set changes across epochs: members can be added
// (a pool appears on first lease) and removed (Drop purges the pool).
// Dialing, backoff and unhealthy-release semantics match
// ClusterClient. It is safe for concurrent use.
type ReplicaClient struct {
	opts ClusterOptions

	mu     sync.Mutex
	idle   map[string]chan *BackendConn
	closed bool
}

// NewReplicaClient builds a client with no pools yet; pools appear as
// addresses are leased.
func NewReplicaClient(opts ClusterOptions) *ReplicaClient {
	return &ReplicaClient{opts: opts.withDefaults(), idle: make(map[string]chan *BackendConn)}
}

// Options returns the client's configuration with defaults applied.
func (c *ReplicaClient) Options() ClusterOptions { return c.opts }

// pool returns the idle pool for addr, creating it on first use.
func (c *ReplicaClient) pool(addr string) chan *BackendConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.idle[addr]
	if !ok {
		p = make(chan *BackendConn, c.opts.PoolSize)
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
		return nil, fmt.Errorf("transport: member %s unreachable after %d attempts: %w", addr, c.opts.DialAttempts, err)
	}
	return bc, nil
}

// Release returns a leased connection. A healthy connection goes back
// to the address's pool (or is closed when the pool is full); an
// unhealthy one is closed and the address's whole idle pool is
// discarded with it, for the same reason as ClusterClient.Release —
// the error usually means the process died, and retries must reach a
// fresh dial rather than burn on dead pooled connections.
func (c *ReplicaClient) Release(addr string, bc *BackendConn, healthy bool) {
	if bc == nil {
		return
	}
	if healthy {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if !closed {
			select {
			case c.pool(addr) <- bc:
				return
			default:
			}
		}
		bc.Close()
		return
	}
	bc.Close()
	c.drain(addr)
}

// Drop purges and removes the pool for an address (a member that left
// the cluster).
func (c *ReplicaClient) Drop(addr string) {
	c.mu.Lock()
	p := c.idle[addr]
	delete(c.idle, addr)
	c.mu.Unlock()
	drainPool(p)
}

// drain empties the address's pool without removing it.
func (c *ReplicaClient) drain(addr string) {
	c.mu.Lock()
	p := c.idle[addr]
	c.mu.Unlock()
	drainPool(p)
}

func drainPool(p chan *BackendConn) {
	if p == nil {
		return
	}
	for {
		select {
		case bc := <-p:
			bc.Close()
		default:
			return
		}
	}
}

// Close closes every pooled idle connection and marks the client
// closed (subsequent healthy releases close instead of pooling).
// Leased connections are closed by their holders via Release.
func (c *ReplicaClient) Close() {
	c.mu.Lock()
	c.closed = true
	pools := make([]chan *BackendConn, 0, len(c.idle))
	for _, p := range c.idle {
		pools = append(pools, p)
	}
	c.idle = make(map[string]chan *BackendConn)
	c.mu.Unlock()
	for _, p := range pools {
		drainPool(p)
	}
}
