package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/obs"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/internal/wire"
	"rtf/ldp"
)

// This file is the conformance table of the serving core: the frame-loop
// contract asserted once, over every supported (mode, front) cell,
// instead of once per hand-copied loop. Each cell applies acked batches,
// then throws everything at the front that must NOT change state — a
// batch poisoned by a malformed query or a malformed ingest message, a
// query inside an acked batch, off-mode frames, an acked batch against a
// full queue — and finally asks every query kind, behind one more write
// on the writing connection and on a second one (which a gateway front
// serves from what the write's fence gathered), and compares the
// answers, bit for bit, with a serial ldp engine fed exactly the acked
// batches. Anything that leaked past validation or admission shows up as
// a differing bit or a differing applied-message count.

const (
	confD   = 16
	confK   = 2
	confEps = 1.0
	confM   = 5 // exact domain size
)

var confEnc = hh.LolohaEncoding(1000, 8, 0xfeed)

// confOracle is the serial reference.
type confOracle struct {
	b *ldp.Server
	d *ldp.DomainServer
}

func newConfOracle(t *testing.T, m confMode) *confOracle {
	t.Helper()
	o := &confOracle{}
	var err error
	if m.domain == 0 {
		o.b, err = ldp.NewServer(confD, m.opts...)
	} else {
		o.d, err = ldp.NewDomainServer(confD, m.domain, m.opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// answer asks whichever engine the mode has.
func (o *confOracle) answer(q ldp.Query) (ldp.Answer, error) {
	if o.b != nil {
		return o.b.Answer(q)
	}
	return o.d.Answer(q)
}

func (o *confOracle) feed(t *testing.T, ms []wire.Msg) {
	t.Helper()
	for _, m := range ms {
		r := ldp.Report{User: m.User, Order: int(m.Order), J: m.J, Bit: m.Bit}
		var err error
		switch m.Type {
		case wire.MsgHello:
			err = o.b.Register(int(m.Order))
		case wire.MsgReport:
			err = o.b.Ingest(r)
		case wire.MsgDomainHello, wire.MsgHashedDomainHello:
			err = o.d.Register(int(m.Item), int(m.Order))
		case wire.MsgDomainReport:
			err = o.d.Ingest(ldp.DomainReport{Item: int(m.Item), Report: r})
		default:
			t.Fatalf("oracle fed message type %d", m.Type)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// confMode is one row axis: a protocol mode, its traffic and its reads.
type confMode struct {
	name string
	mode transport.Mode
	meta persist.Meta
	// domain is the item-domain size (0 for Boolean) and opts the ldp
	// options of the serial reference.
	domain int
	opts   []ldp.Option
	// user builds one user's hello and reports.
	user func(u int) []wire.Msg
	// poison are range-invalid frames of the mode (queries and ingest);
	// offMode are frames of another mode (or another seed).
	poison, offMode []wire.Msg
	// check asks every query kind on the connection and compares with
	// the oracle.
	check func(t *testing.T, enc *wire.Encoder, dec *wire.Decoder, o *confOracle)
	// ranged are reads evaluated over one period range, which a front
	// that gathers raw sums must gather under that range's scope; whole
	// are reads that need every column.
	ranged, whole []wire.Msg
}

func confReport(u, r int) protocol.Report {
	order := u % 3
	bit := int8(1)
	if (u+r)%2 == 0 {
		bit = -1
	}
	return protocol.Report{User: u, Order: order, J: 1 + (u*7+r*3)%(confD>>uint(order)), Bit: bit}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func confModes(t *testing.T) []confMode {
	mech, ok := ldp.Lookup(ldp.FutureRand)
	if !ok {
		t.Fatal("futurerand not registered")
	}
	scale, err := mech.EstimatorScale(ldp.Params{D: confD, K: confK, Eps: confEps})
	if err != nil {
		t.Fatal(err)
	}
	base := []ldp.Option{ldp.WithMechanism(ldp.FutureRand), ldp.WithSparsity(confK), ldp.WithEpsilon(confEps)}
	meta := persist.Meta{Mechanism: string(ldp.FutureRand), D: confD, K: confK, Eps: confEps, Scale: scale}

	send := func(t *testing.T, enc *wire.Encoder, q wire.Msg) {
		t.Helper()
		if err := enc.Encode(q); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	checkBool := func(t *testing.T, enc *wire.Encoder, dec *wire.Decoder, o *confOracle) {
		t.Helper()
		ask := func(q ldp.Query) ldp.Answer {
			a, err := o.b.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		for _, c := range []struct {
			wire wire.Msg
			want []float64
		}{
			{wire.QueryV2(wire.QueryPoint, 1, 0), []float64{ask(ldp.PointQuery(1)).Value}},
			{wire.QueryV2(wire.QueryPoint, 3, 3), []float64{ask(ldp.PointQuery(3)).Value}},
			{wire.QueryV2(wire.QueryPoint, confD, 0), []float64{ask(ldp.PointQuery(confD)).Value}},
			{wire.QueryV2(wire.QueryChange, 2, confD-1), []float64{ask(ldp.ChangeQuery(2, confD-1)).Value}},
			{wire.QueryV2(wire.QuerySeries, 0, 0), ask(ldp.SeriesQuery()).Series},
			{wire.QueryV2(wire.QueryWindow, 3, 9), ask(ldp.WindowQuery(3, 9)).Series},
		} {
			send(t, enc, c.wire)
			got, err := dec.ReadAnswer()
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.Values, c.want) {
				t.Fatalf("%s: got %v, want %v", c.wire.Kind, got.Values, c.want)
			}
		}
	}
	checkDomain := func(m int) func(*testing.T, *wire.Encoder, *wire.Decoder, *confOracle) {
		return func(t *testing.T, enc *wire.Encoder, dec *wire.Decoder, o *confOracle) {
			t.Helper()
			for _, c := range []struct {
				wire wire.Msg
				q    ldp.Query
			}{
				{wire.DomainQuery(wire.QueryPointItem, 1, confD, 0, 0), ldp.PointItemQuery(1, confD)},
				{wire.DomainQuery(wire.QueryPointItem, m-1, 2, 0, 0), ldp.PointItemQuery(m-1, 2)},
				{wire.DomainQuery(wire.QuerySeriesItem, 2, 0, 0, 0), ldp.SeriesItemQuery(2)},
				{wire.DomainQuery(wire.QueryTopK, 0, confD, 0, 3), ldp.TopKQuery(confD, 3)},
				{wire.DomainQuery(wire.QueryTopK, 0, confD/2, 0, 1), ldp.TopKQuery(confD/2, 1)},
			} {
				want, err := o.d.Answer(c.q)
				if err != nil {
					t.Fatal(err)
				}
				wantVals := want.Series
				if c.q.Kind == ldp.PointItem {
					wantVals = []float64{want.Value}
				}
				send(t, enc, c.wire)
				got, err := dec.ReadDomainAnswer()
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got.Values, wantVals) || fmt.Sprint(got.Items) != fmt.Sprint(want.Items) {
					t.Fatalf("%s: got %v %v, want %v %v", c.wire.Kind, got.Items, got.Values, want.Items, wantVals)
				}
			}
		}
	}

	domainRanged := []wire.Msg{wire.DomainQuery(wire.QueryPointItem, 1, confD-1, 0, 0),
		wire.DomainQuery(wire.QueryTopK, 0, confD/2+1, 0, 3)}
	seriesItem := wire.DomainQuery(wire.QuerySeriesItem, 2, 0, 0, 0)
	exactMeta, hashedMeta := meta, meta
	exactMeta.M = confM
	hashedMeta.M, hashedMeta.G, hashedMeta.Encoding, hashedMeta.HashSeed = confEnc.M, confEnc.G, confEnc.Name, confEnc.Seed
	boolHello, domainHello := wire.Hello(900, 0), wire.DomainHello(900, 0, 0)
	return []confMode{
		{
			name: "bool", mode: transport.BoolMode(confD, scale), meta: meta, opts: base,
			user: func(u int) []wire.Msg {
				ms := []wire.Msg{wire.Hello(u, u%3)}
				for r := 0; r < 3; r++ {
					ms = append(ms, wire.FromReport(confReport(u, r)))
				}
				return ms
			},
			poison: []wire.Msg{wire.QueryV2(wire.QueryWindow, 1, confD+5), wire.QueryV2(wire.QueryPoint, confD+1, 0),
				{Type: wire.MsgReport, User: 901, Order: 0, J: confD + 1, Bit: 1}},
			offMode: []wire.Msg{domainHello, wire.DomainQuery(wire.QueryTopK, 0, 1, 0, 1), wire.DomainSums()},
			check:   checkBool,
			ranged:  []wire.Msg{wire.QueryV2(wire.QueryPoint, confD-1, confD-1), wire.QueryV2(wire.QueryChange, 2, confD-1)},
			whole:   []wire.Msg{wire.QueryV2(wire.QuerySeries, 0, 0), wire.QueryV2(wire.QueryWindow, 3, 9), wire.Sums()},
		},
		{
			name: "exact", mode: transport.DomainMode(confD, hh.ExactEncoding(confM), scale), meta: exactMeta, domain: confM, opts: base,
			user: func(u int) []wire.Msg {
				ms := []wire.Msg{wire.DomainHello(u, u%confM, u%3)}
				for r := 0; r < 3; r++ {
					ms = append(ms, wire.FromDomainReport(u%confM, confReport(u, r)))
				}
				return ms
			},
			poison: []wire.Msg{wire.DomainQuery(wire.QueryPointItem, confM+3, 1, 0, 0),
				{Type: wire.MsgDomainReport, User: 901, Item: confM, Order: 0, J: 1, Bit: 1}},
			offMode: []wire.Msg{boolHello, wire.QueryV2(wire.QueryPoint, 1, 0), wire.Sums(),
				wire.HashedDomainHello(900, 0, 0, confEnc.Seed), wire.HashedDomainSums(confEnc.M, confEnc.G, confEnc.Seed)},
			check:  checkDomain(confM),
			ranged: domainRanged, whole: []wire.Msg{seriesItem, wire.DomainSums()},
		},
		{
			name: "hashed", mode: transport.DomainMode(confD, confEnc, scale), meta: hashedMeta, domain: confEnc.M,
			opts: append(append([]ldp.Option(nil), base...),
				ldp.WithDomainEncoding(hh.EncodingLoloha), ldp.WithBuckets(confEnc.G), ldp.WithHashSeed(confEnc.Seed)),
			user: func(u int) []wire.Msg {
				ms := []wire.Msg{wire.HashedDomainHello(u, u%confEnc.G, u%3, confEnc.Seed)}
				for r := 0; r < 3; r++ {
					ms = append(ms, wire.FromDomainReport(u%confEnc.G, confReport(u, r)))
				}
				return ms
			},
			poison: []wire.Msg{wire.DomainQuery(wire.QueryPointItem, confEnc.M, 1, 0, 0),
				{Type: wire.MsgDomainReport, User: 901, Item: int32(confEnc.G), Order: 0, J: 1, Bit: 1}},
			offMode: []wire.Msg{boolHello, domainHello, wire.DomainSums(),
				wire.HashedDomainHello(900, 0, 0, confEnc.Seed+1),
				wire.HashedDomainSums(confEnc.M, confEnc.G, confEnc.Seed+1)},
			check:  checkDomain(confEnc.M),
			ranged: domainRanged,
			whole:  []wire.Msg{seriesItem, wire.HashedDomainSums(confEnc.M, confEnc.G, confEnc.Seed)},
		},
	}
}

// connIO counts the socket calls a front makes on its client
// connections: what the flush discipline is pinned with.
type connIO struct{ reads, writes atomic.Int64 }

type countingListener struct {
	net.Listener
	io *connIO
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.io}, nil
}

type countingConn struct {
	net.Conn
	io *connIO
}

func (c countingConn) Read(p []byte) (int, error) {
	c.io.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.io.writes.Add(1)
	return c.Conn.Write(p)
}

// backendTap records what a gateway's backends write back to it, one
// entry per Write: at this table's sizes a response leaves in one.
type backendTap struct {
	mu     sync.Mutex
	writes [][]byte
	sums   int64     // sums frames written since the start, never reset
	stall  *tapStall // non-nil while sums frames are held back
}

// tapStall is one hold on the backends' sums frames: a gather's fetch
// parked on a backend that has applied what it was sent and not answered.
type tapStall struct {
	// parked gets one token per frame held; its buffer exceeds the frames
	// any test has in flight, so a backend never blocks announcing itself.
	parked chan struct{}
	open   chan struct{} // closed by release
	kill   bool          // set before open closes: held frames die with their connections
}

// stallSums holds back every sums frame the backends are about to write,
// each announcing itself on parked. release lets the held frames go — or,
// with kill, closes their connections instead, a backend dying under the
// fetch — and frames written after it pass untouched.
func (b *backendTap) stallSums() (parked <-chan struct{}, release func(kill bool)) {
	st := &tapStall{parked: make(chan struct{}, 64), open: make(chan struct{})}
	b.mu.Lock()
	b.stall = st
	b.mu.Unlock()
	return st.parked, func(kill bool) {
		b.mu.Lock()
		b.stall = nil
		b.mu.Unlock()
		st.kill = kill
		close(st.open)
	}
}

// sumsFrames counts the raw-sums frames the backends have answered.
func (b *backendTap) sumsFrames() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sums
}

func (b *backendTap) take() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.writes
	b.writes = nil
	return w
}

type tapListener struct {
	net.Listener
	tap *backendTap
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tapConn{c, l.tap}, nil
}

type tapConn struct {
	net.Conn
	tap *backendTap
}

func (c tapConn) Write(p []byte) (int, error) {
	c.tap.mu.Lock()
	c.tap.writes = append(c.tap.writes, bytes.Clone(p))
	var st *tapStall
	if t := wire.MsgType(p[0]); t == wire.MsgSumsFrame || t == wire.MsgDomainSumsFrame {
		c.tap.sums++
		st = c.tap.stall
	}
	c.tap.mu.Unlock()
	if st != nil {
		st.parked <- struct{}{}
		if <-st.open; st.kill {
			c.Conn.Close()
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(p)
}

// confFront is the other row axis: a running front over a mode.
type confFront struct {
	srv  *transport.Server
	addr string
	io   *connIO
	// applied sums the ingest messages the front's stores hold;
	// replicas is how many stores hold each one.
	applied  func() (hellos, reports int64)
	replicas int64
	// lastSeq is the WAL position of a durable front (nil otherwise).
	lastSeq func() uint64
	// tap sees the backends' responses on a gateway front (nil otherwise).
	tap *backendTap
	// lastErr is the most recent error that failed a client connection.
	lastErr func() error
	stop    func()
}

// serveFront starts srv on a loopback port with a one-slot queue, its
// client connections' socket calls counted.
func serveFront(t *testing.T, srv *transport.Server) confFront {
	t.Helper()
	srv.Queue = transport.NewIngestQueue(1)
	srv.Metrics = transport.NewServerMetrics(obs.NewRegistry())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	io := new(connIO)
	var (
		errMu   sync.Mutex
		lastErr error
	)
	srv.ErrorLog = func(err error) {
		errMu.Lock()
		lastErr = err
		errMu.Unlock()
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(countingListener{l, io}) }()
	return confFront{srv: srv, addr: l.Addr().String(), io: io, replicas: 1, lastErr: func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return lastErr
	}, stop: func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		l.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}}
}

func storeFront(t *testing.T, store transport.Store) confFront {
	f := serveFront(t, transport.NewIngestServer(store).Server)
	f.applied = func() (int64, int64) { h, r, _ := store.Stats(); return h, r }
	return f
}

// backends starts n unqueued single-node backends over the given stores
// and returns their addresses, summed stats, a tap on what they write
// and a stop function.
func startBackends(t *testing.T, stores []transport.Store) (addrs []string, applied func() (int64, int64), tap *backendTap, stop func()) {
	var stops []func()
	tap = new(backendTap)
	for _, st := range stores {
		srv := transport.NewIngestServer(st)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(tapListener{l, tap}) }()
		addrs = append(addrs, l.Addr().String())
		stops = append(stops, func() {
			srv.Close()
			l.Close()
			<-done
		})
	}
	applied = func() (h, r int64) {
		for _, st := range stores {
			sh, sr, _ := st.Stats()
			h, r = h+sh, r+sr
		}
		return h, r
	}
	return addrs, applied, tap, func() {
		for _, s := range stops {
			s()
		}
	}
}

// durableFront serves store through a journal in a fresh directory.
func durableFront(t *testing.T, m confMode, store transport.Store) confFront {
	dc, _, err := transport.OpenDurableStore(store, t.TempDir(), m.meta, transport.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := storeFront(t, dc)
	stop := f.stop
	f.lastSeq = func() uint64 { return dc.DurabilityStats().LastSeq }
	f.stop = func() {
		stop()
		if err := dc.Close(); err != nil {
			t.Error(err)
		}
	}
	return f
}

var confFronts = []struct {
	name string
	// gathers reports whether the front answers reads from raw sums it
	// gathers per read from backends. A shard map, like a collector,
	// answers from its live accumulator, whose counter shards are its
	// virtual shards.
	gathers bool
	start   func(t *testing.T, m confMode) confFront
}{
	{"single", false, func(t *testing.T, m confMode) confFront {
		return storeFront(t, transport.NewCollector(m.mode, 2))
	}},
	{"single-durable", false, func(t *testing.T, m confMode) confFront {
		return durableFront(t, m, transport.NewCollector(m.mode, 2))
	}},
	{"shard-map", false, func(t *testing.T, m confMode) confFront {
		return storeFront(t, transport.NewShardMap(m.mode, 4, "n0"))
	}},
	{"shard-map-durable", false, func(t *testing.T, m confMode) confFront {
		return durableFront(t, m, transport.NewShardMap(m.mode, 4, "n0"))
	}},
	{"static-gateway", true, func(t *testing.T, m confMode) confFront { return gatewayFront(t, m, testPlacements[0]) }},
	{"member-gateway", true, func(t *testing.T, m confMode) confFront { return gatewayFront(t, m, testPlacements[1]) }},
}

// gatewayFront serves the gateway of one placement over its backends.
func gatewayFront(t *testing.T, m confMode, pl testPlacement) confFront {
	p := pl.build(t, m.mode, fastOpts())
	f := serveFront(t, p.gw.Server)
	stop := f.stop
	f.applied, f.replicas, f.tap, f.stop = p.applied, int64(pl.replicas), p.tap, func() { stop(); p.stop() }
	return f
}

// expectDrop writes frames on a fresh connection and requires the front
// to close it without answering.
func expectDrop(t *testing.T, addr, what string, write func(enc *wire.Encoder) error) {
	t.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	if err := write(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	expectDropBytes(t, addr, what, buf.Bytes())
}

// expectDropBytes is expectDrop for bytes no Encoder writes any more.
func expectDropBytes(t *testing.T, addr, what string, raw []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("%s: front answered (%d bytes) instead of failing the connection", what, n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("%s: front neither answered nor closed the connection", what)
	}
}

func TestFrameLoopConformance(t *testing.T) {
	for _, m := range confModes(t) {
		for _, fr := range confFronts {
			t.Run(m.name+"/"+fr.name, func(t *testing.T) {
				f := fr.start(t, m)
				defer f.stop()
				oracle := newConfOracle(t, m)
				var hellos, reports int64
				accept := func(ms []wire.Msg) {
					oracle.feed(t, ms)
					for _, msg := range ms {
						switch msg.Type {
						case wire.MsgReport, wire.MsgDomainReport:
							reports++
						default:
							hellos++
						}
					}
				}

				conn, err := net.Dial("tcp", f.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				enc, dec := wire.NewEncoder(conn), wire.NewDecoder(conn)
				sendAcked := func(ms []wire.Msg) bool {
					t.Helper()
					if err := enc.EncodeAckedBatch(ms); err != nil {
						t.Fatal(err)
					}
					if err := enc.Flush(); err != nil {
						t.Fatal(err)
					}
					applied, err := dec.ReadBatchAck()
					if err != nil {
						t.Fatal(err)
					}
					return applied
				}

				// Acked batches that apply: four users each.
				for b := 0; b < 3; b++ {
					var batch []wire.Msg
					for u := 4 * b; u < 4*b+4; u++ {
						batch = append(batch, m.user(u)...)
					}
					if !sendAcked(batch) {
						t.Fatal("acked batch shed by an idle queue")
					}
					accept(batch)
				}
				// A read fences the acked batches on the gateway fronts, so
				// the applied counts below are settled.
				m.check(t, enc, dec, oracle)
				var journaled uint64
				if f.lastSeq != nil {
					journaled = f.lastSeq()
				}

				// Atomic batches: a malformed frame anywhere — a query or an
				// ingest message — poisons the whole batch.
				good := m.user(100)
				for _, bad := range m.poison {
					batch := append(append(append([]wire.Msg(nil), good...), bad), m.user(101)...)
					expectDrop(t, f.addr, fmt.Sprintf("batch poisoned by malformed frame type %d", bad.Type),
						func(e *wire.Encoder) error { return e.EncodeBatch(batch) })
				}
				// An acked batch carries ingest only.
				expectDrop(t, f.addr, "query inside an acked batch", func(e *wire.Encoder) error {
					return e.EncodeAckedBatch(append(append([]wire.Msg(nil), good...), m.mode.SumsRequest()))
				})
				// A front serves exactly one mode (and one hash seed).
				for _, off := range m.offMode {
					expectDrop(t, f.addr, fmt.Sprintf("off-mode frame type %d", off.Type), func(e *wire.Encoder) error {
						return e.Encode(off)
					})
					expectDrop(t, f.addr, fmt.Sprintf("off-mode frame type %d after valid ingest", off.Type), func(e *wire.Encoder) error {
						return e.EncodeBatch(append(append([]wire.Msg(nil), good...), off))
					})
				}

				// The retired v1 point query (types 4 and 5) is refused by
				// every front with the same error — alone, or poisoning the
				// valid ingest batched in front of it.
				var v1Batch bytes.Buffer
				body := wire.NewEncoder(&v1Batch)
				v1Batch.Write([]byte{byte(wire.MsgBatch), byte(len(good) + 1)})
				for _, msg := range good {
					if err := body.Encode(msg); err != nil {
						t.Fatal(err)
					}
				}
				if err := body.Flush(); err != nil {
					t.Fatal(err)
				}
				v1Batch.Write([]byte{byte(wire.MsgQuery), 1})
				for what, raw := range map[string][]byte{
					"v1 query":                    {byte(wire.MsgQuery), 1},
					"v1 estimate":                 {byte(wire.MsgEstimate), 1, 0, 0, 0, 0, 0, 0, 0, 0},
					"v1 query after valid ingest": v1Batch.Bytes(),
				} {
					expectDropBytes(t, f.addr, what, raw)
					const want = "v1 point query removed; send QueryV2(QueryPoint, t, 0)"
					if err := f.lastErr(); err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("%s: connection failed with %v, want %q", what, err, want)
					}
				}

				// A full queue sheds an acked batch whole and blocks a
				// legacy one until a slot frees.
				f.srv.Queue.Acquire()
				if sendAcked(m.user(102)) {
					t.Fatal("acked batch applied through a full queue")
				}
				legacy := m.user(103)
				answered := make(chan error, 1)
				go func() {
					// The connection is this goroutine's until it reports.
					err := enc.EncodeBatch(legacy)
					if err == nil {
						err = enc.Encode(m.mode.SumsRequest())
					}
					if err == nil {
						err = enc.Flush()
					}
					if err == nil {
						_, err = m.mode.ReadSums(dec)
					}
					answered <- err
				}()
				select {
				case err := <-answered:
					t.Fatalf("legacy batch and the read behind it went through a full queue (err=%v)", err)
				case <-time.After(100 * time.Millisecond):
				}
				f.srv.Queue.Release()
				select {
				case err := <-answered:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("legacy batch still blocked after the queue drained")
				}
				accept(legacy)
				legacyBatches := uint64(1)

				// A front that gathers raw sums gathers the columns the read
				// evaluates: a read over one period range moves at most
				// 1 + orders + 2·log₂ d counters a row, and only a read that
				// needs every column (or an unscoped sums request, which is
				// answered with the version-1 frame it always was) moves the
				// matrix. Each read rides behind a one-user batch, so it is its
				// session's fence and gathers for itself whatever is cached. A
				// front that answers from its own accumulator answers the same
				// reads and counts no gather.
				{
					rows := max(m.mode.Ingest().Rows, 1)
					gathers := func(scope string) int64 {
						return f.srv.Metrics.Registry().Counter(obs.Label("gathers_total", "scope", scope)).Value()
					}
					for i, q := range append(append([]wire.Msg(nil), m.ranged...), m.whole...) {
						ranged := i < len(m.ranged)
						batch := m.user(200 + i)
						if f.tap != nil {
							f.tap.take()
						}
						before := [2]int64{gathers("range"), gathers("full")}
						if err := enc.EncodeBatch(batch); err != nil {
							t.Fatal(err)
						}
						if err := enc.Encode(q); err != nil {
							t.Fatal(err)
						}
						if err := enc.Flush(); err != nil {
							t.Fatal(err)
						}
						accept(batch)
						legacyBatches++
						var err error
						switch q.Type {
						case wire.MsgQueryV2:
							_, err = dec.ReadAnswer()
						case wire.MsgDomainQuery:
							_, err = dec.ReadDomainAnswer()
						default:
							var sums wire.RawSums
							if sums, err = m.mode.ReadSums(dec); err == nil && (sums.Scope != wire.Scope{} || len(sums.Counters) != rows*protocol.RawStride(confD)) {
								t.Fatalf("unscoped sums request answered with scope %v, %d counters", sums.Scope, len(sums.Counters))
							}
						}
						if err != nil {
							t.Fatalf("read %+v: %v", q, err)
						}
						want := before
						switch {
						case fr.gathers && ranged:
							want[0]++
						case fr.gathers:
							want[1]++
						}
						if got := [2]int64{gathers("range"), gathers("full")}; got != want {
							t.Fatalf("read %+v: gathers_total range/full went %v -> %v, want %v", q, before, got, want)
						}
						if f.tap == nil {
							continue
						}
						frames := 0
						for _, w := range f.tap.take() {
							if t := wire.MsgType(w[0]); t != wire.MsgSumsFrame && t != wire.MsgDomainSumsFrame {
								continue
							}
							sums, err := m.mode.ReadSums(wire.NewDecoder(bytes.NewReader(w)))
							if err != nil {
								t.Fatalf("read %+v: backend frame: %v", q, err)
							}
							if fence := (wire.Scope{L: 1, R: 1}); sums.Scope == fence && m.mode.Scope(q) != fence {
								continue // a fence or a connection's first round trip, not the read's gather
							}
							frames++
							bound := rows * (1 + dyadic.NumOrders(confD) + 2*dyadic.Log2(confD))
							if ranged && (sums.Scope != m.mode.Scope(q) || len(sums.Counters) > bound) {
								t.Fatalf("read %+v fetched a frame of scope %v, %d counters; want scope %v, at most %d",
									q, sums.Scope, len(sums.Counters), m.mode.Scope(q), bound)
							}
							if !ranged && len(sums.Counters) != rows*protocol.RawStride(confD) {
								t.Fatalf("read %+v fetched a frame of %d counters, want the full %d", q, len(sums.Counters), rows*protocol.RawStride(confD))
							}
						}
						if frames == 0 {
							t.Fatalf("read %+v fetched no backend frame", q)
						}
					}
				}

				// A fence-filled entry: the read behind one more write needs
				// every column, so on a gateway front what that fence gathered
				// is what the cache holds, and every read after it — on the
				// writer's connection and on a second one — is answered from
				// it. Both agree with the serial engine, so with each other and
				// with the single-server column; nothing refused above left a
				// trace in either.
				fills := func(by string) int64 {
					return f.srv.Metrics.Registry().Counter(obs.Label("answer_cache_fills_total", "by", by)).Value()
				}
				fencesBefore, missesBefore := fills("fence"), fills("miss")
				last := m.user(300)
				if err := enc.EncodeBatch(last); err != nil {
					t.Fatal(err)
				}
				if _, _, err := (&gwClient{conn: conn, enc: enc, dec: dec}).ask(m.whole[0]); err != nil {
					t.Fatalf("the read behind the last write: %v", err)
				}
				accept(last)
				legacyBatches++
				second, err := net.Dial("tcp", f.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer second.Close()
				m.check(t, enc, dec, oracle)
				m.check(t, wire.NewEncoder(second), wire.NewDecoder(second), oracle)
				if f.tap != nil && (fills("fence") != fencesBefore+1 || fills("miss") != missesBefore) {
					t.Fatalf("answer_cache_fills_total fence/miss went %d/%d -> %d/%d, want one fill, by the fence",
						fencesBefore, missesBefore, fills("fence"), fills("miss"))
				}
				if h, r := f.applied(); h != hellos*f.replicas || r != reports*f.replicas {
					t.Fatalf("stores hold %d hellos / %d reports, want %d / %d", h, r, hellos*f.replicas, reports*f.replicas)
				}
				if f.lastSeq != nil {
					if got := f.lastSeq(); got != journaled+legacyBatches {
						t.Fatalf("WAL at record %d, want %d (the settled prefix plus the %d legacy batches)", got, journaled+legacyBatches, legacyBatches)
					}
				}
			})
		}
	}
}

// TestFlushDiscipline pins, on every cell of the same table, how the
// frame loop spends syscalls: acks are buffered and leave when the loop
// answers a read or is about to block on the socket, never later — so a
// burst costs one write per wake-up and a client that stops mid-frame
// still gets every ack it is owed.
func TestFlushDiscipline(t *testing.T) {
	for _, m := range confModes(t) {
		for _, fr := range confFronts {
			t.Run(m.name+"/"+fr.name, func(t *testing.T) {
				f := fr.start(t, m)
				defer f.stop()
				conn, err := net.Dial("tcp", f.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(30 * time.Second))
				dec := wire.NewDecoder(conn)
				// frame encodes one batch frame over users [u, u+n).
				frame := func(acked bool, u, n int, more ...wire.Msg) []byte {
					t.Helper()
					var ms []wire.Msg
					for i := u; i < u+n; i++ {
						ms = append(ms, m.user(i)...)
					}
					var buf bytes.Buffer
					enc := wire.NewEncoder(&buf)
					encode := enc.EncodeBatch
					if acked {
						encode = enc.EncodeAckedBatch
					}
					if err := encode(append(ms, more...)); err != nil {
						t.Fatal(err)
					}
					if err := enc.Flush(); err != nil {
						t.Fatal(err)
					}
					return buf.Bytes()
				}
				write := func(bs ...[]byte) {
					t.Helper()
					if _, err := conn.Write(bytes.Join(bs, nil)); err != nil {
						t.Fatal(err)
					}
				}
				acks := func(want ...bool) {
					t.Helper()
					for i, w := range want {
						if got, err := dec.ReadBatchAck(); err != nil || got != w {
							t.Fatalf("ack %d of %d: applied=%v (%v), want %v", i+1, len(want), got, err, w)
						}
					}
				}

				// A client that writes one frame and half of the next, then
				// waits for its ack, gets it: the loop flushes before it
				// blocks on the rest of the second frame.
				next := frame(true, 4, 4)
				write(frame(true, 0, 4), next[:len(next)/2])
				acks(true)
				write(next[len(next)/2:])
				acks(true)

				// Steady state: once the read buffer has grown, a 16 KB
				// frame written in one Write costs at most two reads.
				big := func(i int) []byte { return frame(true, 1000+600*i, 600) } // 2,400 messages, ≈ 17 KB
				for i := 0; i < 3; i++ {
					write(big(i))
					acks(true)
				}
				reads := f.io.reads.Load()
				const steady = 10
				for i := 3; i < 3+steady; i++ {
					write(big(i))
					acks(true)
				}
				if got := f.io.reads.Load() - reads; got > 2*steady {
					t.Errorf("%d reads for %d frames of %d bytes each, want at most two per frame", got, steady, len(big(0)))
				}

				// Eight pipelined frames: eight acks in order, in at most
				// three writes, and the metrics say so.
				var burst [][]byte
				for i := 0; i < 8; i++ {
					burst = append(burst, frame(true, 20000+40*i, 40))
				}
				writes := f.io.writes.Load()
				acked, flushes := f.srv.Metrics.AckedBatches.Value(), f.srv.Metrics.AckFlushes.Value()
				write(burst...)
				acks(true, true, true, true, true, true, true, true)
				if got := f.io.writes.Load() - writes; got > 3 {
					t.Errorf("eight pipelined frames were acknowledged in %d writes, want at most 3", got)
				}
				if a, fl := f.srv.Metrics.AckedBatches.Value()-acked, f.srv.Metrics.AckFlushes.Value()-flushes; a != 8 || fl > 3 || fl < 1 {
					t.Errorf("metrics count %d acked batches in %d ack flushes, want 8 in 1..3", a, fl)
				}

				// Shed frames' negative acks are buffered like positive ones
				// and keep their place: two shed frames and half a third,
				// one write carrying both verdicts in order.
				f.srv.Queue.Acquire()
				writes = f.io.writes.Load()
				next = frame(true, 30010, 4)
				write(frame(true, 30000, 4), frame(true, 30005, 4), next[:len(next)/2])
				acks(false, false)
				if got := f.io.writes.Load() - writes; got != 1 {
					t.Errorf("two shed frames were acknowledged in %d writes, want 1", got)
				}
				f.srv.Queue.Release()
				write(next[len(next)/2:])
				acks(true)

				// An answer inside a legacy mixed batch is flushed at once and
				// fences exactly what preceded it: it counts the first run's
				// users, not the second's; the read behind the batch counts
				// both.
				users := func() (n int64) {
					t.Helper()
					sums, err := m.mode.ReadSums(dec)
					if err != nil {
						t.Fatal(err)
					}
					for x := 0; x < max(sums.M, 1); x++ {
						u, _, _ := sums.Row(x)
						n += u
					}
					return n
				}
				var probe bytes.Buffer
				penc := wire.NewEncoder(&probe)
				if err := penc.Encode(m.mode.SumsRequest()); err != nil {
					t.Fatal(err)
				}
				if err := penc.Flush(); err != nil {
					t.Fatal(err)
				}
				write(probe.Bytes())
				before := users()
				var second []wire.Msg
				for i := 40100; i < 40107; i++ {
					second = append(second, m.user(i)...)
				}
				write(frame(false, 40000, 5, append([]wire.Msg{m.mode.SumsRequest()}, second...)...), probe.Bytes())
				if mid, after := users(), users(); mid != before+5 || after != before+12 {
					t.Errorf("in-batch read saw %d users and the read behind the batch %d, want %d and %d", mid, after, before+5, before+12)
				}

				// Shutdown does not strand an ack: the frame applied before
				// it is acknowledged before the connection goes away.
				next = frame(true, 50010, 4)
				write(frame(true, 50000, 4), next[:len(next)/2])
				shut := make(chan error, 1)
				go func() { shut <- f.srv.Shutdown(50 * time.Millisecond) }()
				acks(true)
				if _, err := dec.ReadBatchAck(); err == nil {
					t.Error("half a frame was acknowledged")
				} else if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
					t.Errorf("connection survived Shutdown: %v", err)
				} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Logf("connection ended with %v", err)
				}
				if err := <-shut; err != nil {
					t.Error(err)
				}
			})
		}
	}
}
