package main

import (
	"fmt"
	"io"

	"rtf/internal/hh"
	"rtf/internal/obs"
	"rtf/ldp"
)

// mode is everything the harness knows about one protocol mode —
// Boolean, exact domain, hashed domain. Each value closes over its
// workload, its per-user client factory (deterministic per-user seeds, so
// the report set does not depend on how users are spread over
// connections, phases or acked batches) and the in-process reference
// server every served answer is compared with bit for bit. Nothing
// outside this file builds a mode.
type mode struct {
	// flags put rtf-serve and rtf-gateway in this mode with this run's
	// parameters.
	flags []string
	// conn is the mode's client on a dialled connection.
	conn func(rw io.ReadWriter) (*ldp.Conn, error)
	// user generates user u's hello and reports. Users past the
	// workload's size reuse its value patterns (u mod N) under their own
	// id and randomness.
	user func(u int) (user, error)
	// phantom queues a hello that carries no data: it touches a user
	// counter and the write-ahead log but no interval sum, so a stream of
	// them may be cut anywhere without moving an estimate.
	phantom func(c *ldp.Conn, u int) error
	// queries are every query shape verify asks, and answer is the
	// reference's answer to one.
	queries []ldp.Query
	answer  func(ldp.Query) (ldp.Answer, error)
	// ceiling bounds the RSS of the backend that crashed and recovered,
	// in bytes, over a catalogue of m items; 0 = no bound.
	ceiling float64
	m       int
}

// user is one user's hello and reports: send queues them on a
// connection, and fold feeds the same to the reference. The driver calls
// fold under its lock once it knows the server took them.
type user struct {
	msgs int
	send func(c *ldp.Conn) error
	fold func() error
}

// andEach returns err, or if it is nil the first error f returns over
// xs, in order.
func andEach[T any](err error, xs []T, f func(T) error) error {
	for i := 0; err == nil && i < len(xs); i++ {
		err = f(xs[i])
	}
	return err
}

// protocolFlags are the server flags every mode shares.
func protocolFlags(o *options) []string {
	return []string{"-mechanism", o.proto, "-d", fmt.Sprint(o.d), "-k", fmt.Sprint(o.k), "-eps", fmt.Sprint(o.eps)}
}

func ldpOptions(o *options) []ldp.Option {
	return []ldp.Option{ldp.WithMechanism(ldp.Protocol(o.proto)), ldp.WithSparsity(max(o.k, 1)), ldp.WithEpsilon(o.eps)}
}

// newBoolMode is the Boolean protocol. verify asks the point estimate of
// every period — the paper's online query — and then each shape over
// whole and partial ranges.
func newBoolMode(o *options) (*mode, int, error) {
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
	d := w.D
	m := &mode{
		flags: protocolFlags(o),
		conn:  func(rw io.ReadWriter) (*ldp.Conn, error) { return ldp.NewConn(rw, d) },
		user: func(u int) (user, error) {
			cl, err := factory.NewClient(u, o.seed+int64(u))
			if err != nil {
				return user{}, err
			}
			var reps []ldp.Report
			for _, v := range w.Users[u%w.N].Values(d) {
				if r, ok := cl.Observe(v == 1); ok {
					reps = append(reps, r)
				}
			}
			order := cl.Order()
			return user{
				msgs: 1 + len(reps),
				send: func(c *ldp.Conn) error { return andEach(c.Hello(u, order), reps, c.Report) },
				fold: func() error { return andEach(ref.Register(order), reps, ref.Ingest) },
			}, nil
		},
		phantom: func(c *ldp.Conn, u int) error { return c.Hello(u, 0) },
		answer:  ref.Answer,
	}
	for t := 1; t <= d; t++ {
		m.queries = append(m.queries, ldp.PointQuery(t))
	}
	m.queries = append(m.queries, ldp.PointQuery(1), ldp.PointQuery(d), ldp.ChangeQuery(1, d), ldp.ChangeQuery(d/4+1, d/2),
		ldp.SeriesQuery(), ldp.WindowQuery(1, d), ldp.WindowQuery(d/2, d/2+1))
	return m, w.N, nil
}

// newDomainMode is domain-valued tracking under the encoding that opts
// select, beside the mode's serve flags. verify asks point-item at three
// times and the full series for each of items, then top-k — items and
// values — at each (t, k) of topK.
func newDomainMode(o *options, items []int, topK [][2]int, flags []string, opts ...ldp.Option) (*mode, error) {
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
	d := w.D
	m := &mode{
		flags: append(append(protocolFlags(o), "-m", fmt.Sprint(o.m)), flags...),
		conn:  func(rw io.ReadWriter) (*ldp.Conn, error) { return ldp.NewDomainConn(rw, d, w.M, opts...) },
		user: func(u int) (user, error) {
			cl, err := factory.NewClient(u, o.seed+int64(u))
			if err != nil {
				return user{}, err
			}
			var reps []ldp.DomainReport
			for _, v := range w.Users[u%w.N].Values(d) {
				r, ok, err := cl.Observe(v)
				if err != nil {
					return user{}, err
				}
				if ok {
					reps = append(reps, r)
				}
			}
			// cl.Item() is the sampled bucket under a hashed encoding.
			item, order := cl.Item(), cl.Order()
			return user{
				msgs: 1 + len(reps),
				send: func(c *ldp.Conn) error { return andEach(c.DomainHello(u, item, order), reps, c.DomainReport) },
				fold: func() error { return andEach(ref.Register(item, order), reps, ref.Ingest) },
			}, nil
		},
		phantom: func(c *ldp.Conn, u int) error { return c.DomainHello(u, 0, 0) },
		answer:  ref.Answer,
		m:       w.M,
	}
	for _, x := range items {
		m.queries = append(m.queries, ldp.PointItemQuery(x, 1), ldp.PointItemQuery(x, d/2), ldp.PointItemQuery(x, d), ldp.SeriesItemQuery(x))
	}
	for _, tk := range topK {
		m.queries = append(m.queries, ldp.TopKQuery(tk[0], tk[1]))
	}
	return m, nil
}

// newExactMode is the exact encoding: one counter row per item, every
// item probed.
func newExactMode(o *options) (*mode, int, error) {
	items := make([]int, max(o.m, 0))
	for x := range items {
		items[x] = x
	}
	m, err := newDomainMode(o, items, [][2]int{{o.d, o.m}, {o.d, 3}, {o.d / 2, 1}, {1, o.m}}, nil)
	return m, o.n, err
}

// newHashedMode is the loloha encoding: -buckets rows stand in for a
// catalogue that may be far past the exact encoding's 4096-row cap, so
// verification samples it — the edges, items just past the cap and an
// even spread — and the recovered backend's RSS must fit a ceiling
// derived from g and d, deliberately not from m: server memory is O(g·d)
// however large the catalogue (an exact m = 10⁶ matrix would be
// gigabytes). The epoch hash seed derives from -seed, so the whole run
// replays from one number.
func newHashedMode(o *options) (*mode, int, error) {
	var items []int
	seen := make(map[int]bool)
	probe := func(x int) {
		if x >= 0 && x < o.m && !seen[x] {
			seen[x] = true
			items = append(items, x)
		}
	}
	for _, x := range []int{0, 1, ldp.MaxDomainSize, ldp.MaxDomainSize + 13, o.m - 1} {
		probe(x)
	}
	for i := 0; i < 24; i++ {
		probe(1 + i*(o.m/24))
	}
	hseed := uint64(o.seed) + 0x10f0
	m, err := newDomainMode(o, items, [][2]int{{o.d, 100}, {o.d, 10}, {o.d / 2, 1}, {1, 25}},
		[]string{"-encoding", hh.EncodingLoloha, "-buckets", fmt.Sprint(o.buckets), "-hash-seed", fmt.Sprint(hseed)},
		ldp.WithDomainEncoding(hh.EncodingLoloha), ldp.WithBuckets(o.buckets), ldp.WithHashSeed(hseed))
	if err != nil {
		return nil, 0, err
	}
	m.ceiling = float64(192<<20) + float64(o.buckets)*float64(o.d)*256
	return m, o.n, nil
}

// audit is the mode's own assertion over the final metrics of the
// backend that crashed and recovered: its RSS under the ceiling.
func (m *mode) audit(durable obs.Snapshot) error {
	if m.ceiling == 0 {
		return nil
	}
	rss := durable.Gauges["process_rss_bytes"]
	if rss <= 0 {
		return fmt.Errorf("durable backend reported no process_rss_bytes gauge")
	}
	if rss > m.ceiling {
		return fmt.Errorf("durable backend RSS %.1fMB exceeds the bucket-derived ceiling %.1fMB (catalogue m=%d): bucket state is not bounding memory",
			rss/1e6, m.ceiling/1e6, m.m)
	}
	fmt.Printf("rss        durable backend %.1fMB <= bucket-derived ceiling %.1fMB (catalogue m=%d never materialized)\n",
		rss/1e6, m.ceiling/1e6, m.m)
	return nil
}
