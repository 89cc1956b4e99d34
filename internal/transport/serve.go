// Package transport is the serving core over the protocol's byte format
// (internal/wire): the Mode contract (mode.go) that alone knows what
// distinguishes the Boolean, exact domain and hashed domain protocols,
// one frame loop and connection lifecycle (serve.go), and one in-memory
// collector, one shard-map collector and one durable journal around
// either (collector.go, shardmap.go, durable.go). cmd/rtf-serve is an
// IngestServer over one of those stores; internal/cluster's gateways run
// the same frame loop over backend connections.
//
// The paper's protocol is transport-agnostic; this package exists so the
// repository exercises the client/server split as an actual distributed
// system — batching, concurrent sharded ingestion, durability,
// scale-out — rather than as in-process function calls only. A client
// does not link it: ldp encodes with internal/wire alone.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"rtf/internal/wire"
)

// This file is the serving core: the one frame loop and the one
// connection lifecycle every front runs. A front — the single-node
// IngestServer here, the Gateway in internal/cluster — is a Server plus
// a Session factory, and fronts differ only in what a session's Apply
// means (collector / partition and forward to every owner) and what its
// Gather means (live state / cached scatter-gather over a placement).

// Session is one client connection's state inside a front.
type Session interface {
	// Apply takes one run of a frame's records and the bytes that encoded
	// it (a stretch of Frame.Wire, valid until Apply returns). The frame
	// loop decoded the run under the mode's ingest contract; a session
	// does not validate it again.
	Apply(run []wire.Rec, raw []byte) error
	// Gather returns the state read frame m is answered from.
	Gather(m wire.Msg) (Reader, error)
	// Close releases the session. healthy reports a clean client close
	// (or server shutdown) rather than a failed connection.
	Close(healthy bool)
}

// Server accepts any number of TCP (or other net.Listener) connections
// and runs the frame loop on each, in its own goroutine, against a
// Session opened for it.
type Server struct {
	// ErrorLog, when non-nil, receives per-connection decode/validation
	// failures (which close that connection but not the server).
	ErrorLog func(err error)

	// Metrics, when non-nil, instruments the serving loop: applied
	// batches and messages, batch-size and ingest-latency histograms,
	// live connection count, per-kind query counters, and acked-batch
	// shed accounting. Nil keeps every serving path metric-free (and
	// branch-predictable), so embedded and test servers pay nothing.
	Metrics *ServerMetrics

	// Queue, when non-nil, bounds concurrent in-flight batches across
	// all connections, before anything is applied or forwarded. Legacy
	// batches block for a slot (TCP backpressure); acked batches are
	// shed whole — acknowledged but never applied, journaled or
	// forwarded anywhere — when no slot is free. See IngestQueue.
	Queue *IngestQueue

	mode    Mode
	label   string // queries_total mechanism label
	open    func(slot int) Session
	onClose func()    // runs once the connections are gone; may be nil
	control *ShardMap // membership control plane; nil on every other front
	install func(shard int, state []byte) error

	mu       sync.Mutex
	listener net.Listener     // set by ListenAndServe so Close can unblock it
	conns    map[net.Conn]int // each live connection's shard slot
	slots    []bool           // slots[i]: a live connection holds slot i
	closed   bool
	nextID   int
	wg       sync.WaitGroup
}

// NewServer builds a serving core for mode. label is the front's
// queries_total mechanism label; open builds the Session of a
// connection from its shard slot, the lowest slot no other live
// connection holds; onClose, when non-nil, runs after Shutdown or Close
// has dealt with the connections (the gateway closes its backend pools
// there).
func NewServer(mode Mode, label string, open func(slot int) Session, onClose func()) *Server {
	return &Server{mode: mode, label: label, open: open, onClose: onClose, conns: make(map[net.Conn]int)}
}

// IngestServer is the single-node front, the engine behind
// cmd/rtf-serve: sessions apply runs to a Store under their connection's
// counter shard (so ingestion scales with cores) and answer reads from
// the store's live state, bit-for-bit like a serial server fed the same
// reports. A connection's counter shard is its shard slot (modulo the
// shard count): the lowest slot no other live connection holds, freed
// when the connection closes. Concurrent writers so land on distinct
// shards while there are enough of them, and since a shard's counters
// are allocated by its first writer, reconnects and pool churn allocate
// only as many shards as there were concurrent writers at peak. Over a
// ShardMap (membership mode) it also serves the membership control
// plane on the same connections.
type IngestServer struct {
	*Server
	store Store
}

// NewIngestServer builds a server over the given store — a Collector or
// ShardMap for in-memory serving, or a Durable around either for a
// restartable service.
func NewIngestServer(store Store) *IngestServer {
	s := &IngestServer{store: store}
	s.Server = NewServer(store.Mode(), store.Mode().Name(),
		func(slot int) Session { return storeSession{store, slot} }, nil)
	switch st := store.(type) {
	case *ShardMap:
		s.control, s.install = st, st.InstallShard
	case *Durable:
		// A durable install also cuts a snapshot; see Durable.InstallShard.
		s.control, _ = st.journaled.(*ShardMap)
		s.install = st.InstallShard
	}
	if s.control != nil {
		s.label = MemberLabel("membership", s.mode)
	}
	return s
}

// Store returns the store the server feeds. Only tests call it:
// cluster's TestGatewayBackendFailureQueryPaths.
func (s *IngestServer) Store() Store { return s.store }

// MemberLabel is the queries_total mechanism label of a membership
// front: the prefix alone for the Boolean mode, prefix-mode otherwise.
func MemberLabel(prefix string, mode Mode) string {
	if name := mode.Name(); name != "boolean" {
		return prefix + "-" + name
	}
	return prefix
}

// storeSession is a connection of the single-node front, writing to
// the counter shard of its slot.
type storeSession struct {
	store Store
	slot  int
}

func (s storeSession) Apply(run []wire.Rec, raw []byte) error { return s.store.Apply(s.slot, run, raw) }
func (s storeSession) Gather(wire.Msg) (Reader, error)        { return s.store, nil }
func (s storeSession) Close(bool)                             {}

// Serve accepts connections on l until Close is called (or the listener
// fails) and then waits for in-flight connections to drain. The caller
// retains ownership of l only until Serve returns; Close closes it.
func (s *Server) Serve(l net.Listener) error {
	defer s.wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		id, slot, ok := s.track(conn)
		if !ok {
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			if err := s.serveConn(slot, conn); err != nil && s.ErrorLog != nil {
				s.ErrorLog(fmt.Errorf("transport: conn %d: %w", id, err))
			}
		}()
	}
}

// ListenAndServe listens on addr and serves. The chosen address (useful
// with ":0") is sent on ready, if non-nil, once the listener is up.
func (s *Server) ListenAndServe(addr string, ready chan<- net.Addr) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("transport: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	if ready != nil {
		ready <- l.Addr()
	}
	return s.Serve(l)
}

// flushBeforeRead is the decoder's source on a served connection: the
// frame loop buffers its acks, and whatever it has buffered goes out
// before the loop can block on the socket — one write per wake-up, never
// later than the moment the server would otherwise sleep.
type flushBeforeRead struct {
	r     io.Reader
	flush func() error
}

func (s flushBeforeRead) Read(p []byte) (int, error) {
	if err := s.flush(); err != nil {
		return 0, err
	}
	return s.r.Read(p)
}

// serveConn runs the frame loop for one connection: ingest runs go to
// the session's Apply; read frames are answered from what its Gather
// returns, and because frames are handled in order, a read doubles as a
// fence for everything the connection sent before it.
//
// Batches are atomic: the decoder validates every ingest message of a
// frame against the mode's contract as it decodes it, and every read is
// checked through ValidateRead, before anything is applied — so a batch
// of [reports…, malformed query, reports…] applies (and, on a durable
// store, journals; on a gateway, forwards) nothing at all rather than a
// prefix. An acked batch may carry ingest messages only. This is the one
// place a served message is validated: Apply is handed records, with
// the bytes that encoded them, and trusts both.
//
// Acks are buffered and leave with the next answer or, at the latest,
// when the decoder goes back to the socket (flushBeforeRead): a burst of
// pipelined frames read in one wake-up is acknowledged in one write, in
// order, negative acks of shed frames included.
func (s *Server) serveConn(slot int, conn net.Conn) (err error) {
	enc := wire.NewEncoder(conn)
	acks := 0 // encoded since the last flush
	flush := func() error {
		if enc.Buffered() == 0 {
			return nil
		}
		if acks > 0 && s.Metrics != nil {
			s.Metrics.AckFlushes.Inc()
		}
		acks = 0
		return enc.Flush()
	}
	dec := wire.NewDecoder(flushBeforeRead{conn, flush})
	sess := s.open(slot)
	defer func() {
		// Frames applied before a failure keep their acks, if the
		// connection still takes them.
		_ = flush()
		sess.Close(err == nil)
	}()

	ingest := s.mode.Ingest()
	if s.control != nil {
		ingest.Reads |= wire.ControlFrames
	}
	var sc AnswerScratch
	validateRead := func(acked bool, m wire.Msg) error {
		if acked {
			return fmt.Errorf("message type %d (query) inside acked batch", m.Type)
		}
		if m.Type == wire.MsgShardSums {
			if n := s.control.NumShards(); m.Shard < 0 || int(m.Shard) >= n {
				return fmt.Errorf("shard %d out of range [0..%d)", m.Shard, n)
			}
		}
		return s.mode.ValidateRead(m)
	}
	var queries *queryCounters
	if s.Metrics != nil {
		queries = s.Metrics.queriesOf(s.label)
	}
	answer := func(m wire.Msg) error {
		if queries != nil {
			queries.count(m)
		}
		r, err := sess.Gather(m)
		if err != nil {
			return err
		}
		memo, hit, err := r.Answer(m, enc, &sc)
		if err != nil {
			return err
		}
		if memo && s.Metrics != nil {
			s.Metrics.CountCacheResult(hit)
		}
		return flush()
	}
	for {
		f, err := dec.NextFrame(&ingest)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // clean client close or server shutdown
			}
			return err
		}
		if s.control != nil && len(f.Reads) == 1 && len(f.Recs) == 0 {
			if handled, err := s.handleControl(f.Reads[0].Msg, dec, enc, flush); handled {
				if err != nil {
					return err
				}
				continue
			}
		}
		start := time.Now()
		for i := range f.Reads {
			if err := validateRead(f.Acked, f.Reads[i].Msg); err != nil {
				return err
			}
		}
		shed, holding, err := s.admitBatch(f.Acked, enc, flush)
		if err != nil {
			return err
		}
		if !shed {
			err = wire.BatchRuns(f, sess.Apply, answer)
			if holding {
				s.Queue.Release()
			}
			if err != nil {
				return err
			}
			if err := s.finishBatch(f.Acked, enc, len(f.Recs), start); err != nil {
				return err
			}
		}
		if f.Acked {
			acks++
		}
	}
}

// handleControl is the frame loop's one hook for the membership control
// plane of a shard-mapped backend: a view push or shard-transfer
// install, each acknowledged with one MsgMemberAck. It reports whether
// the frame was one of them. An install or hard view failure still acks
// (negatively) before surfacing the error, so the pushing gateway sees
// a refusal rather than a hang.
func (s *Server) handleControl(m wire.Msg, dec *wire.Decoder, enc *wire.Encoder, flush func() error) (handled bool, err error) {
	applied := true
	switch m.Type {
	case wire.MsgView:
		applied, err = s.control.SetView(dec.TakeView())
	case wire.MsgShardTransfer:
		err = s.install(int(m.Shard), dec.TakeShardState())
	default:
		return false, nil
	}
	if err != nil {
		// Best effort: the connection is about to fail with err.
		_ = enc.EncodeMemberAck(false)
		_ = flush()
		return true, err
	}
	if err := enc.EncodeMemberAck(applied); err != nil {
		return true, err
	}
	return true, flush()
}

// admitBatch runs queue admission for one decoded batch: legacy batches
// block for a slot, acked batches are shed whole when the queue is
// full. It reports whether the batch was shed (its negative ack is
// buffered, keeping its place among the positive ones; the caller skips
// the batch entirely) and whether a slot is held and must be released
// after the batch is applied.
func (s *Server) admitBatch(acked bool, enc *wire.Encoder, flush func() error) (shed, holding bool, err error) {
	if s.Queue == nil {
		return false, false, nil
	}
	if !acked {
		if !s.Queue.TryAcquire() {
			// About to sleep for a slot: buffered acks go out first.
			if err := flush(); err != nil {
				return false, false, err
			}
			s.Queue.Acquire()
		}
		return false, true, nil
	}
	if s.Queue.TryAcquire() {
		return false, true, nil
	}
	if s.Metrics != nil {
		s.Metrics.ObserveShed()
	}
	return true, false, enc.EncodeBatchAck(false)
}

// finishBatch acknowledges an applied acked batch — into the encoder's
// buffer, see serveConn — and records its metrics. On a gateway the
// positive ack certifies the batch was written whole to the session's
// backend leases; as with legacy batches, application is certified by
// the next read on the session.
func (s *Server) finishBatch(acked bool, enc *wire.Encoder, n int, start time.Time) error {
	if acked {
		if err := enc.EncodeBatchAck(true); err != nil {
			return err
		}
	}
	if s.Metrics != nil {
		s.Metrics.ObserveBatch(n, time.Since(start), acked)
	}
	return nil
}

// Shutdown drains the server gracefully: it stops accepting new
// connections and closes the listener, then gives in-flight connections
// up to grace to finish their streams (clients see the listener gone
// and close when done) before force-closing whatever remains. It
// returns once every connection goroutine has exited, so the store is
// quiescent — safe to snapshot — when Shutdown returns.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	s.listener = nil
	s.mu.Unlock()
	var lerr error
	if l != nil {
		lerr = l.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.closeConns()
		<-done
	}
	if s.onClose != nil {
		s.onClose()
	}
	return lerr
}

// Close stops accepting connections, closes the listener and all live
// connections, and unblocks Serve. Only tests call it: cluster's tests
// close gateways through the embedded Server.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	s.listener = nil
	s.mu.Unlock()
	s.closeConns()
	if s.onClose != nil {
		s.onClose()
	}
	if l != nil {
		return l.Close()
	}
	return nil
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers an accepted connection and assigns its log id, unique
// for the server's lifetime, and its shard slot, the lowest no live
// connection holds; it refuses once the server is closed.
func (s *Server) track(conn net.Conn) (id, slot int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, false
	}
	if slot = slices.Index(s.slots, false); slot < 0 {
		slot = len(s.slots)
		s.slots = append(s.slots, false)
	}
	s.slots[slot] = true
	s.conns[conn] = slot
	if s.Metrics != nil {
		s.Metrics.ActiveConns.Add(1)
	}
	id = s.nextID
	s.nextID++
	return id, slot, true
}

// untrack forgets a finished connection and frees its shard slot.
func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	s.slots[s.conns[conn]] = false
	delete(s.conns, conn)
	if s.Metrics != nil {
		s.Metrics.ActiveConns.Add(-1)
	}
	s.mu.Unlock()
	conn.Close()
}
