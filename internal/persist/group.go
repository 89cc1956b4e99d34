package persist

import (
	"errors"
	"sync"
	"time"
)

// GroupCommitter batches WAL appends from many goroutines into shared
// groups: each Commit enqueues its payload and blocks until the group
// holding it is committed — written in one write call and, when the WAL
// fsyncs, made durable by one sync — via AppendBatch. Under concurrent
// load the write+fsync cost is paid once per group instead of once per
// caller, which is what lets fsync-durable ingest keep up with many
// fast connections; the price is that a lone caller waits up to the
// coalescing interval for company that never arrives.
//
// Completion is a future: Commit does not return until its group is on
// disk, so a caller that acknowledges its client after Commit returns
// still means "durable" by that ack — batching changes who pays for the
// sync, never what an ack promises.
type GroupCommitter struct {
	wal      *WAL
	interval time.Duration

	mu     sync.Mutex
	queue  []*groupEntry // appends waiting for the next group
	spare  []*groupEntry // recycled backing array (ping-pongs with queue)
	closed bool

	wake    chan struct{} // signals the loop that a group has started; capacity 1
	closing chan struct{} // closed once by Close to cut a linger short
	exited  chan struct{} // closed when the loop has drained and returned

	pool sync.Pool // *groupEntry, recycled across commits
	bufs [][]byte  // payload slices for AppendBatch, reused (loop-owned)
}

// groupEntry is one caller's pending append: its own copy of the payload
// to journal (the buffer is recycled with the entry), the result slots,
// and a one-slot channel the committer signals when the group holding
// the entry has committed or failed. Signaling by send (not close) keeps
// the channel — and the entry — reusable.
type groupEntry struct {
	payload []byte
	seq     uint64
	err     error
	done    chan struct{}
}

// NewGroupCommitter starts a committer over the WAL. interval is the
// coalescing window: after the first append of a group arrives, the
// committer lingers this long collecting more before it commits. Zero
// commits each group as soon as the loop can collect it; callers that
// overlap a commit in flight still share the next group.
func NewGroupCommitter(wal *WAL, interval time.Duration) *GroupCommitter {
	c := &GroupCommitter{
		wal:      wal,
		interval: interval,
		wake:     make(chan struct{}, 1),
		closing:  make(chan struct{}),
		exited:   make(chan struct{}),
	}
	go c.run()
	return c
}

// ErrCommitterClosed rejects commits after Close.
var ErrCommitterClosed = errors.New("persist: group committer closed")

// Commit journals one WAL record — its payload is the given parts back
// to back, as for WAL.Append — inside the next group and blocks until
// that group has committed, returning the record's sequence number. The
// parts are copied before the entry is queued. Safe for concurrent use;
// the steady state allocates nothing (entries, their payload buffers
// and the queues are recycled).
func (c *GroupCommitter) Commit(parts ...[]byte) (uint64, error) {
	e, _ := c.pool.Get().(*groupEntry)
	if e == nil {
		e = &groupEntry{done: make(chan struct{}, 1)}
	}
	e.payload = e.payload[:0]
	for _, p := range parts {
		e.payload = append(e.payload, p...)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.pool.Put(e)
		return 0, ErrCommitterClosed
	}
	c.queue = append(c.queue, e)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default: // a wakeup is already pending; the loop will see this entry
	}
	<-e.done
	seq, err := e.seq, e.err
	e.seq, e.err = 0, nil
	c.pool.Put(e)
	return seq, err
}

// Close flushes every pending append as a final group, stops the loop
// and rejects further commits. A linger in progress is cut short, so
// Close returns promptly even under a long coalescing interval.
func (c *GroupCommitter) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.exited
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.closing)
	select {
	case c.wake <- struct{}{}:
	default:
	}
	<-c.exited
}

// run is the committer loop: wait for a group to start, linger for the
// coalescing interval, then commit everything queued as one group.
func (c *GroupCommitter) run() {
	defer close(c.exited)
	for {
		<-c.wake
		if c.interval > 0 {
			t := time.NewTimer(c.interval)
			select {
			case <-t.C:
			case <-c.closing:
				t.Stop()
			}
		}
		c.mu.Lock()
		work := c.queue
		c.queue = c.spare[:0]
		c.spare = work
		closed := c.closed
		c.mu.Unlock()
		c.commit(work)
		if closed {
			// The flag is set, so nothing new can enqueue; one more
			// collection catches entries that raced in before it was.
			c.mu.Lock()
			rest := c.queue
			c.queue = nil
			c.mu.Unlock()
			c.commit(rest)
			return
		}
	}
}

// commit writes one group through AppendBatch and signals every waiting
// caller with its record's sequence number (or the shared error).
func (c *GroupCommitter) commit(q []*groupEntry) {
	if len(q) == 0 {
		return
	}
	c.bufs = c.bufs[:0]
	for _, e := range q {
		c.bufs = append(c.bufs, e.payload)
	}
	first, err := c.wal.AppendBatch(c.bufs)
	for i := range c.bufs {
		c.bufs[i] = nil // the buffers go back to their callers with the entries
	}
	for i, e := range q {
		if err == nil {
			e.seq = first + uint64(i)
		}
		e.err = err
		e.done <- struct{}{} // e is the caller's again after this send
	}
}
