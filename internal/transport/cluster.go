package transport

import (
	"encoding/binary"
	"net"
	"time"
)

// This file is the client side of the scatter/gather cluster: the framed
// connection a gateway holds to one backend, and the options of the pool
// (replica.go) that dials it, re-dialing a dead backend with exponential
// backoff. The gateway (internal/cluster) leases one connection per
// backend for the lifetime of each client session, so the backend's
// in-order frame handling makes a sums fetch on the same connection a
// fence for everything the session forwarded before it.

// ClusterOptions configures a ReplicaClient. The zero value is usable:
// every field has a sensible default.
type ClusterOptions struct {
	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// DialAttempts is how many times Lease tries to reach a backend
	// before giving up (default 10). With the default backoff schedule
	// the attempts span roughly nine seconds — enough to ride out a
	// backend restart.
	DialAttempts int
	// BackoffBase is the sleep after the first failed attempt (default
	// 50ms); it doubles per attempt up to BackoffMax (default 2s).
	BackoffBase time.Duration
	// BackoffMax caps the per-attempt backoff sleep (default 2s).
	BackoffMax time.Duration
	// PoolSize is the per-backend idle-connection pool capacity
	// (default 4). Leases beyond it dial fresh connections; releases
	// beyond it close the connection instead of pooling it.
	PoolSize int
	// FetchTimeout, when positive, bounds one sums fetch round-trip
	// against a backend (connection deadline around the request). A
	// timed-out fetch counts as a connection failure: retried on a fresh
	// connection when the session has nothing unfenced at stake, fatal
	// to the session otherwise. Zero means no deadline (the default,
	// preserving pre-timeout behavior).
	FetchTimeout time.Duration
	// HedgeDelay, when positive, arms hedged reads: a clean-session
	// sums fetch that has not answered within HedgeDelay is raced
	// against a second fetch on a freshly leased connection, and the
	// first answer wins. Only read-only idempotent fetches with no
	// unfenced forwards are hedged, so duplicated requests cannot
	// double-apply anything. Zero disables hedging.
	HedgeDelay time.Duration
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.DialAttempts <= 0 {
		o.DialAttempts = 10
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	return o
}

// BackendConn is one framed connection to a backend: the net.Conn plus
// its encoder/decoder pair. It is not safe for concurrent use; a leased
// connection belongs to one session until released.
type BackendConn struct {
	conn net.Conn
	enc  *Encoder
	dec  *Decoder
	read int64 // bytes read off conn, see BytesRead
	// checked records that the backend answered the mode's own sums
	// request on this connection, see FetchSums.
	checked bool
}

// Read counts what the decoder pulls off the connection.
func (b *BackendConn) Read(p []byte) (int, error) {
	n, err := b.conn.Read(p)
	b.read += int64(n)
	return n, err
}

// BytesRead returns the bytes read from the backend so far. The
// connection is strict request/response, so the difference across a
// FetchSums is that sums frame's wire size.
func (b *BackendConn) BytesRead() int64 { return b.read }

// SendBatch writes one batch frame (buffered until Flush).
func (b *BackendConn) SendBatch(ms []Msg) error { return b.enc.EncodeBatch(ms) }

// RawBatch is a batch frame assembled out of received bytes: a gateway
// appends each stretch of a run's wire bytes bound for one backend and
// forwards the lot behind a batch header, instead of copying the
// messages out and re-encoding them. The zero value is ready to use.
type RawBatch struct {
	n int
	b []byte // rawHeaderRoom bytes for the header, then the body
}

// rawHeaderRoom is the space a RawBatch keeps in front of its body for
// the header, which is only known once the body is complete.
const rawHeaderRoom = 1 + binary.MaxVarintLen32

// Reset empties the batch, keeping its buffer.
func (r *RawBatch) Reset() { r.n, r.b = 0, append(r.b[:0], make([]byte, rawHeaderRoom)...) }

// Append adds the wire bytes of n messages.
func (r *RawBatch) Append(n int, wire []byte) {
	if len(r.b) == 0 {
		r.Reset()
	}
	r.n, r.b = r.n+n, append(r.b, wire...)
}

// Len returns the number of messages appended since Reset.
func (r *RawBatch) Len() int { return r.n }

// SendRaw writes r as one plain batch frame (buffered until Flush). The
// header is laid down right in front of the body, so the frame leaves in
// one write.
func (b *BackendConn) SendRaw(r *RawBatch) error {
	var hdr [rawHeaderRoom]byte
	h := appendBatchHeader(hdr[:0], MsgBatch, r.n)
	frame := r.b[rawHeaderRoom-len(h):]
	copy(frame, h)
	n, err := b.enc.w.Write(frame)
	b.enc.n += int64(n)
	return err
}

// Flush flushes buffered frames to the backend.
func (b *BackendConn) Flush() error { return b.enc.Flush() }

// FetchSums round-trips the mode's raw-sums request under a scope — for
// the whole node when shard is negative, for one virtual shard of a
// membership-mode backend otherwise. Everything sent earlier on this
// connection is applied before the response is cut (the backend handles
// frames in order), so the fetch doubles as a fence. A hashed-domain
// backend refuses the whole-node request unless its catalogue size,
// bucket count and epoch hash seed all match, so bucket counters from
// disagreeing deployments can never merge. A per-shard request carries
// no encoding, so the first one on a connection goes behind the
// smallest whole-node request: a gateway that reads by shard is refused
// by a backend hashing differently exactly as one that reads whole is.
func (b *BackendConn) FetchSums(mode Mode, shard int, scope Scope) (RawSums, error) {
	req := mode.SumsRequest()
	if shard >= 0 {
		if !b.checked {
			if _, err := b.FetchSums(mode, -1, Scope{1, 1}); err != nil {
				return RawSums{}, err
			}
		}
		req = ShardSums(shard)
	}
	req.L, req.R = scope.L, scope.R
	if err := b.enc.Encode(req); err != nil {
		return RawSums{}, err
	}
	if err := b.enc.Flush(); err != nil {
		return RawSums{}, err
	}
	f, err := mode.ReadSums(b.dec)
	b.checked = b.checked || err == nil
	return f, err
}

// SetDeadline sets the absolute read/write deadline on the underlying
// connection (the zero time clears it). The gateway brackets each
// bounded sums fetch with it.
func (b *BackendConn) SetDeadline(t time.Time) error { return b.conn.SetDeadline(t) }

// Close closes the underlying connection.
func (b *BackendConn) Close() error { return b.conn.Close() }

// dialBackend dials addr with exponential backoff across
// o.DialAttempts, returning the last dial error when all fail.
func dialBackend(addr string, o ClusterOptions) (*BackendConn, error) {
	backoff := o.BackoffBase
	var lastErr error
	for attempt := 0; attempt < o.DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > o.BackoffMax {
				backoff = o.BackoffMax
			}
		}
		conn, err := net.DialTimeout("tcp", addr, o.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		bc := &BackendConn{conn: conn, enc: NewEncoder(conn)}
		bc.dec = newDecoderSize(bc, largeReadBuffer)
		return bc, nil
	}
	return nil, lastErr
}
