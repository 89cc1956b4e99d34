package main

import (
	"fmt"

	"rtf/internal/hh"
	"rtf/internal/obs"
	"rtf/internal/wire"
	"rtf/ldp"
	"rtf/workload"
)

// mode is everything the harness knows about one protocol mode —
// Boolean, exact domain, hashed domain. Each value owns its workload, its
// per-user client factory (deterministic per-user seeds, so the report
// set does not depend on how users are spread over connections, phases
// or acked batches) and the in-process reference server every served
// answer is compared with bit for bit. Nothing outside this file names a
// mode.
type mode interface {
	// serveFlags are the flags that put rtf-serve and rtf-gateway in this
	// mode with this run's parameters.
	serveFlags() []string
	// user generates user u's hello and reports as wire messages, and fold,
	// which feeds the same operations to the reference. The driver calls
	// fold under its lock once it knows the server took the messages. Users
	// past the workload's size reuse its value patterns (u mod N) under
	// their own id and randomness.
	user(u int) (ms []wire.Msg, fold func() error, err error)
	// phantom is a hello that carries no data: it touches a user counter
	// and the write-ahead log but no interval sum, so a stream of them may
	// be cut anywhere without moving an estimate.
	phantom(u int) wire.Msg
	// fence round-trips the mode's cheapest read: the server handles
	// frames in order, so the answer proves everything sent before it on
	// this connection is applied (and, on a durable server, journaled).
	fence(enc *wire.Encoder, dec *wire.Decoder) error
	// verify asks every query shape of the mode and returns how many
	// values it compared, each bit-for-bit, with the reference.
	verify(enc *wire.Encoder, dec *wire.Decoder) (int, error)
	// audit is the mode's own assertion over the final metrics of the
	// backend that crashed and recovered.
	audit(durable obs.Snapshot) error
}

// protocolFlags are the server flags every mode shares.
func protocolFlags(o *options) []string {
	return []string{"-mechanism", o.proto, "-d", fmt.Sprint(o.d), "-k", fmt.Sprint(o.k), "-eps", fmt.Sprint(o.eps)}
}

func ldpOptions(o *options) []ldp.Option {
	return []ldp.Option{ldp.WithMechanism(ldp.Protocol(o.proto)), ldp.WithSparsity(max(o.k, 1)), ldp.WithEpsilon(o.eps)}
}

// sameValues compares one answer with the reference's, bit for bit.
func sameValues(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s value %d: server %v, in-process %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Boolean mode.

type boolMode struct {
	flags   []string
	w       *workload.Workload
	factory *ldp.ClientFactory
	ref     *ldp.Server
	seed    int64
}

func newBoolMode(o *options) (mode, int, error) {
	w, err := loadWorkload(o)
	if err != nil {
		return nil, 0, err
	}
	factory, err := ldp.NewClientFactory(w.D, ldpOptions(o)...)
	if err != nil {
		return nil, 0, err
	}
	ref, err := ldp.NewServer(w.D, ldpOptions(o)...)
	if err != nil {
		return nil, 0, err
	}
	return &boolMode{protocolFlags(o), w, factory, ref, o.seed}, w.N, nil
}

func (m *boolMode) serveFlags() []string { return m.flags }

func (m *boolMode) user(u int) ([]wire.Msg, func() error, error) {
	cl, err := m.factory.NewClient(u, m.seed+int64(u))
	if err != nil {
		return nil, nil, err
	}
	ms := []wire.Msg{wire.Hello(u, cl.Order())}
	for _, v := range m.w.Users[u%m.w.N].Values(m.w.D) {
		if r, ok := cl.Observe(v == 1); ok {
			ms = append(ms, wire.FromReport(r))
		}
	}
	return ms, func() error {
		if err := m.ref.Register(int(ms[0].Order)); err != nil {
			return err
		}
		for _, msg := range ms[1:] {
			if err := m.ref.Ingest(msg.Report()); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (m *boolMode) phantom(u int) wire.Msg { return wire.Hello(u, 0) }

func (m *boolMode) ask(enc *wire.Encoder, dec *wire.Decoder, q ldp.Query) ([]float64, error) {
	l, r := q.L, q.R
	if q.Kind == ldp.Point {
		l, r = q.T, 0
	}
	if err := enc.Encode(wire.QueryV2(wire.QueryKind(q.Kind), l, r)); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	a, err := dec.ReadAnswer()
	if err == nil && a.Kind != wire.QueryKind(q.Kind) {
		err = fmt.Errorf("answer kind %s", a.Kind)
	}
	return a.Values, err
}

func (m *boolMode) fence(enc *wire.Encoder, dec *wire.Decoder) error {
	_, err := m.ask(enc, dec, ldp.PointQuery(1))
	return err
}

// verify checks the point estimate of every period — the paper's online
// query — and then each shape over whole and partial ranges.
func (m *boolMode) verify(enc *wire.Encoder, dec *wire.Decoder) (int, error) {
	d := m.w.D
	qs := make([]ldp.Query, 0, d+7)
	for t := 1; t <= d; t++ {
		qs = append(qs, ldp.PointQuery(t))
	}
	qs = append(qs, ldp.PointQuery(1), ldp.PointQuery(d), ldp.ChangeQuery(1, d), ldp.ChangeQuery(d/4+1, d/2),
		ldp.SeriesQuery(), ldp.WindowQuery(1, d), ldp.WindowQuery(d/2, d/2+1))
	checked := 0
	for _, q := range qs {
		what := fmt.Sprintf("%s query (t=%d, l=%d, r=%d)", q.Kind, q.T, q.L, q.R)
		got, err := m.ask(enc, dec, q)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", what, err)
		}
		want, err := m.ref.Answer(q)
		if err != nil {
			return 0, err
		}
		if q.Kind == ldp.Point || q.Kind == ldp.Change {
			want.Series = []float64{want.Value}
		}
		if err := sameValues(what, got, want.Series); err != nil {
			return 0, err
		}
		checked += len(got)
	}
	return checked, nil
}

func (m *boolMode) audit(obs.Snapshot) error { return nil }

// ---------------------------------------------------------------------------
// Domain modes. Exact and hashed are two values of one type: what differs
// between them is data — the encoding options, the hello, which items
// verify probes and the memory ceiling.

type domainMode struct {
	flags   []string
	w       *ldp.DomainWorkload
	factory *ldp.DomainClientFactory
	ref     *ldp.DomainServer
	seed    int64
	hello   func(user, item, order int) wire.Msg
	items   []int    // the items point-item and series-item verification probes
	topK    [][2]int // the (t, k) pairs top-k verification asks
	ceiling float64  // RSS bound of the recovered backend in bytes; 0 = none
}

func newDomainMode(o *options, flags []string, opts ...ldp.Option) (*domainMode, error) {
	w, err := ldp.GenerateDomain(o.n, o.d, o.m, max(o.k, 1), o.zipf, o.seed)
	if err != nil {
		return nil, err
	}
	opts = append(ldpOptions(o), opts...)
	factory, err := ldp.NewDomainClientFactory(w.D, w.M, opts...)
	if err != nil {
		return nil, err
	}
	ref, err := ldp.NewDomainServer(w.D, w.M, opts...)
	if err != nil {
		return nil, err
	}
	flags = append(append(protocolFlags(o), "-m", fmt.Sprint(o.m)), flags...)
	return &domainMode{flags: flags, w: w, factory: factory, ref: ref, seed: o.seed}, nil
}

// newExactMode is the exact encoding: one counter row per item, every
// item probed.
func newExactMode(o *options) (mode, int, error) {
	m, err := newDomainMode(o, nil)
	if err != nil {
		return nil, 0, err
	}
	m.hello = wire.DomainHello
	for x := 0; x < o.m; x++ {
		m.items = append(m.items, x)
	}
	m.topK = [][2]int{{o.d, o.m}, {o.d, 3}, {o.d / 2, 1}, {1, o.m}}
	return m, o.n, nil
}

// newHashedMode is the loloha encoding: -buckets rows stand in for a
// catalogue that may be far past the exact encoding's 4096-row cap, so
// verification samples it — the edges, items just past the cap and an
// even spread — and the recovered backend's RSS must fit a ceiling
// derived from g and d, deliberately not from m: server memory is O(g·d)
// however large the catalogue (an exact m = 10⁶ matrix would be
// gigabytes). The epoch hash seed derives from -seed, so the whole run
// replays from one number.
func newHashedMode(o *options) (mode, int, error) {
	hseed := uint64(o.seed) + 0x10f0
	m, err := newDomainMode(o,
		[]string{"-encoding", hh.EncodingLoloha, "-buckets", fmt.Sprint(o.buckets), "-hash-seed", fmt.Sprint(hseed)},
		ldp.WithDomainEncoding(hh.EncodingLoloha), ldp.WithBuckets(o.buckets), ldp.WithHashSeed(hseed))
	if err != nil {
		return nil, 0, err
	}
	m.hello = func(user, bucket, order int) wire.Msg {
		return wire.HashedDomainHello(user, bucket, order, hseed)
	}
	seen := make(map[int]bool)
	probe := func(x int) {
		if x >= 0 && x < o.m && !seen[x] {
			seen[x] = true
			m.items = append(m.items, x)
		}
	}
	for _, x := range []int{0, 1, ldp.MaxDomainSize, ldp.MaxDomainSize + 13, o.m - 1} {
		probe(x)
	}
	for i := 0; i < 24; i++ {
		probe(1 + i*(o.m/24))
	}
	m.topK = [][2]int{{o.d, 100}, {o.d, 10}, {o.d / 2, 1}, {1, 25}}
	m.ceiling = float64(192<<20) + float64(o.buckets)*float64(o.d)*256
	return m, o.n, nil
}

func (m *domainMode) serveFlags() []string { return m.flags }

func (m *domainMode) user(u int) ([]wire.Msg, func() error, error) {
	cl, err := m.factory.NewClient(u, m.seed+int64(u))
	if err != nil {
		return nil, nil, err
	}
	// cl.Item() is the sampled bucket under a hashed encoding.
	ms := []wire.Msg{m.hello(u, cl.Item(), cl.Order())}
	for _, v := range m.w.Users[u%m.w.N].Values(m.w.D) {
		r, ok, err := cl.Observe(v)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			ms = append(ms, wire.FromDomainReport(r.Item, r.Report))
		}
	}
	return ms, func() error {
		if err := m.ref.Register(int(ms[0].Item), int(ms[0].Order)); err != nil {
			return err
		}
		for _, msg := range ms[1:] {
			rep := ldp.Report{User: msg.User, Order: int(msg.Order), J: msg.J, Bit: msg.Bit}
			if err := m.ref.Ingest(ldp.DomainReport{Item: int(msg.Item), Report: rep}); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (m *domainMode) phantom(u int) wire.Msg { return m.hello(u, 0, 0) }

func (m *domainMode) ask(enc *wire.Encoder, dec *wire.Decoder, kind wire.QueryKind, item, t, k int) (wire.DomainAnswerFrame, error) {
	if err := enc.Encode(wire.DomainQuery(kind, item, t, 0, k)); err != nil {
		return wire.DomainAnswerFrame{}, err
	}
	if err := enc.Flush(); err != nil {
		return wire.DomainAnswerFrame{}, err
	}
	return dec.ReadDomainAnswer()
}

func (m *domainMode) fence(enc *wire.Encoder, dec *wire.Decoder) error {
	_, err := m.ask(enc, dec, wire.QueryPointItem, 0, 1, 0)
	return err
}

// verify checks point-item at three times and the full series for each
// probed item, then top-k — items and values — at each (t, k).
func (m *domainMode) verify(enc *wire.Encoder, dec *wire.Decoder) (int, error) {
	d, checked := m.w.D, 0
	check := func(q ldp.Query) error {
		what := fmt.Sprintf("%s query (item=%d, t=%d, k=%d)", q.Kind, q.Item, q.T, q.K)
		a, err := m.ask(enc, dec, wire.QueryKind(q.Kind), q.Item, q.T, q.K)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		want, err := m.ref.Answer(q)
		if err != nil {
			return err
		}
		if q.Kind == ldp.PointItem {
			want.Series = []float64{want.Value}
		}
		if len(a.Items) != len(want.Items) {
			return fmt.Errorf("%s: %d items, want %d", what, len(a.Items), len(want.Items))
		}
		for i, x := range want.Items {
			if a.Items[i] != x {
				return fmt.Errorf("%s rank %d: server item %d, in-process %d", what, i, a.Items[i], x)
			}
		}
		checked += len(a.Items) + len(a.Values)
		return sameValues(what, a.Values, want.Series)
	}
	for _, x := range m.items {
		for _, q := range []ldp.Query{ldp.PointItemQuery(x, 1), ldp.PointItemQuery(x, d/2), ldp.PointItemQuery(x, d), ldp.SeriesItemQuery(x)} {
			if err := check(q); err != nil {
				return 0, err
			}
		}
	}
	for _, tk := range m.topK {
		if err := check(ldp.TopKQuery(tk[0], tk[1])); err != nil {
			return 0, err
		}
	}
	return checked, nil
}

func (m *domainMode) audit(durable obs.Snapshot) error {
	if m.ceiling == 0 {
		return nil
	}
	rss := durable.Gauges["process_rss_bytes"]
	if rss <= 0 {
		return fmt.Errorf("durable backend reported no process_rss_bytes gauge")
	}
	if rss > m.ceiling {
		return fmt.Errorf("durable backend RSS %.1fMB exceeds the bucket-derived ceiling %.1fMB (catalogue m=%d): bucket state is not bounding memory",
			rss/1e6, m.ceiling/1e6, m.w.M)
	}
	fmt.Printf("rss        durable backend %.1fMB <= bucket-derived ceiling %.1fMB (catalogue m=%d never materialized)\n",
		rss/1e6, m.ceiling/1e6, m.w.M)
	return nil
}
