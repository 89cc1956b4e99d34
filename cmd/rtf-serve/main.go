// Command rtf-serve runs the sharded batch-ingest aggregation service
// for any registered mechanism whose server state is the dyadic
// accumulator (futurerand, independent, bun, erlingsson): a TCP server
// that accepts framed hello/report messages — single or batched — from
// any number of client connections, accumulates them into a sharded
// accumulator — one shard write lock per ingested run, plain adds inside
// it — and answers online queries from the live counters through the
// versioned query frames (MsgQueryV2 → MsgAnswer: point, change, series,
// window). The v1 point query (wire types 4 and
// 5) is retired: a connection that sends one is failed with "v1 point
// query removed; send QueryV2(QueryPoint, t, 0)".
//
// With -m the service hosts the richer-domain extension instead: it
// accepts item-tagged frames (MsgDomainHello, MsgDomainReport) from
// domain clients, runs one dyadic accumulator per item with estimates
// scaled by m, and answers the item-scoped query shapes — point-item,
// series-item and top-k heavy hitters (MsgDomainQuery → MsgDomainAnswer)
// — plus per-item raw-sums requests from a cluster gateway
// (MsgDomainSums). A server hosts exactly one of the two modes.
//
// With -encoding loloha (plus -buckets and -hash-seed) the domain mode
// hashes instead of enumerating: clients hash their values to g
// buckets under the shared epoch seed (longitudinal local hashing), the
// server keeps g bucket accumulators instead of m per-item ones, and
// item queries are answered by decoding the bucket counters — so the
// catalogue can be as large as 2^24 while server memory scales with g.
// Bucket-tagged hellos carry the seed (MsgHashedDomainHello) and are
// refused under a different seed; gateways fetch raw bucket sums with
// the encoding-checked MsgHashedDomainSums.
//
// With -membership (plus -id and -vshards) the service joins a dynamic
// cluster fronted by rtf-gateway -members: it keeps one accumulator per
// virtual shard instead of one global accumulator, and serves the
// membership control plane on the same port — cluster view pushes,
// per-shard raw-sums requests (the gateway's quorum reads), shard state
// export and shard transfer installs (reshard handoffs). Works for
// every protocol mode; with -data-dir a shard install cuts its own
// snapshot, so a handoff survives a crash.
//
// Whatever the flags select, the process is one transport.IngestServer
// over one transport.Store of the resolved transport.Mode (see the
// "serving core" section of README.md for the mode × topology ×
// durability table, every cell of which is served).
//
// With -data-dir the service is durable: every ingested frame is
// appended to a write-ahead log before it is applied, periodic
// snapshots (-snapshot-every) supersede and compact the log, and on
// boot the previous state is recovered from the newest snapshot plus a
// WAL replay — answers after recovery are bit-for-bit those of an
// uninterrupted server. SIGINT/SIGTERM shut down gracefully: the
// listener closes, in-flight connections drain (up to -grace), a final
// snapshot is flushed, and the process exits 0. A second signal forces
// immediate exit.
//
// The protocol parameters (-mechanism, -d, -k, -m, -eps) must match the
// clients'; they determine the estimator scale of Algorithm 2 and are
// recorded in every snapshot, so a data directory written under
// different parameters is rejected at boot rather than misread.
//
// The process logs in logfmt to stderr, -metrics mounts a JSON
// snapshot of every instrument (ingest rate, batch sizes, apply
// latency, queue occupancy, WAL lag, snapshot age, per-mechanism query
// counts) at http://ADDR/metrics, and -queue bounds concurrent batch
// admission: past the bound, legacy batches block (TCP backpressure)
// while acked batches are shed whole with a negative ack — never
// half-applied.
//
// Examples:
//
//	rtf-serve -addr :7609 -d 1024 -k 8 -eps 1.0
//	rtf-serve -addr :7609 -mechanism erlingsson -d 256 -k 4 -eps 0.5 -shards 16 -stats 5s
//	rtf-serve -addr :7609 -d 1024 -k 8 -data-dir /var/lib/rtf -snapshot-every 30s -fsync
//	rtf-serve -addr :7609 -d 256 -k 4 -m 64  # domain-valued tracking over 64 items
//	rtf-serve -addr :7609 -d 1024 -k 8 -metrics :9609 -queue 64
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/membership"
	"rtf/internal/obs"
	"rtf/internal/persist"
	"rtf/internal/transport"
	"rtf/ldp"
)

// config is the parsed and cross-checked flag set, with the protocol
// mode it resolves to.
type config struct {
	addr, mech string
	d, k, m    int
	encName    string
	buckets    int
	hseed      uint64
	eps        float64
	shards     int
	stats      time.Duration
	dataDir    string
	snapEvery  time.Duration
	durable    transport.DurableOptions
	grace      time.Duration
	metrics    string
	queue      int
	pprof      bool
	membership bool
	id         string
	vshards    int

	scale float64
	mode  transport.Mode
}

// parseConfig parses args and refuses every unsupported combination
// with a message naming the flags at fault, before anything listens.
func parseConfig(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("rtf-serve", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":7609", "TCP listen address")
	fs.StringVar(&c.mech, "mechanism", "futurerand", "mechanism to host (must have the sharded capability); must match clients")
	fs.IntVar(&c.d, "d", 1024, "time periods (power of two); must match clients")
	fs.IntVar(&c.k, "k", 8, "max changes per user; must match clients")
	fs.IntVar(&c.m, "m", 0, "domain size for domain-valued tracking (0 = Boolean protocol); must match clients")
	fs.StringVar(&c.encName, "encoding", hh.EncodingExact, "domain encoding with -m: exact (one row per item) or loloha (hash to -buckets rows); must match clients")
	fs.IntVar(&c.buckets, "buckets", 0, "bucket count g with -encoding loloha (2..4096); must match clients")
	fs.Uint64Var(&c.hseed, "hash-seed", 0, "shared epoch hash seed with -encoding loloha; must match clients")
	fs.Float64Var(&c.eps, "eps", 1.0, "privacy budget (0 < eps <= 1); must match clients")
	fs.IntVar(&c.shards, "shards", runtime.GOMAXPROCS(0), "accumulator shards (>= 1)")
	fs.DurationVar(&c.stats, "stats", 0, "print throughput every interval (0 = off)")
	fs.StringVar(&c.dataDir, "data-dir", "", "persist state here (snapshot + write-ahead log); empty = in-memory only")
	fs.DurationVar(&c.snapEvery, "snapshot-every", time.Minute, "periodic snapshot interval with -data-dir (0 = final snapshot only)")
	fs.BoolVar(&c.durable.Fsync, "fsync", false, "fsync the WAL after every append (survive power loss, not just crashes)")
	fs.DurationVar(&c.durable.GroupCommitInterval, "wal-commit-interval", 0, "WAL group-commit coalescing window: batches from all connections arriving within it are committed with one write and at most one fsync; acks still mean journaled/durable (0 = one write+fsync per batch)")
	fs.BoolVar(&c.durable.TolerateTornTail, "tolerate-torn-tail", false, "boot through a torn final WAL record (the artifact of a power loss mid-append) by truncating it; off = fail with a descriptive error so the operator decides")
	fs.DurationVar(&c.grace, "grace", 10*time.Second, "how long a shutdown signal lets in-flight connections drain")
	fs.StringVar(&c.metrics, "metrics", "", "serve the metrics snapshot (JSON) at http://ADDR/metrics; empty = off")
	fs.IntVar(&c.queue, "queue", 0, "bounded ingest admission queue capacity: acked batches beyond it are shed whole, legacy batches block (0 = unbounded)")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/ on the -metrics listener")
	fs.BoolVar(&c.membership, "membership", false, "membership mode: host one accumulator per virtual shard and serve the dynamic-cluster control plane (view pushes, per-shard sums, shard transfers) for an rtf-gateway -members front")
	fs.StringVar(&c.id, "id", "", "this backend's member ID under -membership (must match the gateway's -members entry)")
	fs.IntVar(&c.vshards, "vshards", 64, "virtual shard count under -membership; must match the gateway's -vshards")
	if err := fs.Parse(args); err != nil {
		return c, err
	}

	if !dyadic.IsPow2(c.d) {
		return c, fmt.Errorf("d=%d is not a power of two", c.d)
	}
	mc, ok := ldp.Lookup(ldp.Protocol(c.mech))
	if !ok {
		return c, fmt.Errorf("unknown mechanism %q; registered: %s", c.mech, hostable(false))
	}
	hashed := false
	if c.m > 0 {
		if err := ldp.ValidateDomainSize(c.m, c.encName); err != nil {
			return c, err
		}
		if !mc.Caps.Domain {
			return c, fmt.Errorf("mechanism %q cannot host domain tracking; domain-capable: %s", c.mech, hostable(true))
		}
		hashed = c.encName == hh.EncodingLoloha
		if !hashed && (c.buckets != 0 || c.hseed != 0) {
			return c, fmt.Errorf("-buckets and -hash-seed only apply with -encoding loloha")
		}
	} else {
		if c.encName != hh.EncodingExact || c.buckets != 0 || c.hseed != 0 {
			return c, fmt.Errorf("-encoding, -buckets and -hash-seed require domain mode (-m)")
		}
		if !mc.Caps.Sharded {
			return c, fmt.Errorf("mechanism %q cannot be hosted on the sharded accumulator; hostable: %s", c.mech, hostable(false))
		}
	}
	var err error
	if c.scale, err = mc.EstimatorScale(ldp.Params{D: c.d, K: c.k, Eps: c.eps}); err != nil {
		return c, err
	}
	switch {
	case hashed:
		if !mc.Caps.HashedDomain {
			return c, fmt.Errorf("mechanism %q cannot host hashed domain tracking", c.mech)
		}
		enc := hh.LolohaEncoding(c.m, c.buckets, c.hseed)
		if err := enc.Validate(); err != nil {
			return c, err
		}
		c.mode = transport.HashedMode(c.d, enc, c.scale)
	case c.m > 0:
		c.mode = transport.DomainMode(c.d, c.m, c.scale)
	default:
		c.mode = transport.BoolMode(c.d, c.scale)
	}
	if c.shards < 1 {
		return c, fmt.Errorf("shards=%d must be >= 1", c.shards)
	}
	if c.membership {
		if c.id == "" {
			return c, fmt.Errorf("-membership requires -id (the member ID the gateway routes by)")
		}
		if c.vshards < 1 || c.vshards > membership.MaxShards {
			return c, fmt.Errorf("vshards=%d outside [1..%d]", c.vshards, membership.MaxShards)
		}
	}
	return c, nil
}

// meta describes the hosting configuration recorded in (and checked
// against) every snapshot.
func (c config) meta() persist.Meta {
	meta := persist.Meta{Mechanism: c.mech, D: c.d, K: c.k, M: c.m, Eps: c.eps, Scale: c.scale}
	if c.encName == hh.EncodingLoloha {
		meta.Encoding, meta.G, meta.HashSeed = c.encName, c.buckets, c.hseed
	}
	return meta
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fatal(err)
	}
	logger := obs.NewLogger(os.Stderr, "rtf-serve")

	// One store of the resolved mode: a collector or (membership) a
	// shard map, journaled when -data-dir is set.
	var (
		store   transport.Store
		sm      *transport.ShardMap
		durable *transport.Durable
	)
	if cfg.membership {
		sm = transport.NewShardMap(cfg.mode, cfg.vshards, cfg.id)
		store = sm
	} else {
		store = transport.NewCollector(cfg.mode, cfg.shards)
	}
	if cfg.dataDir != "" {
		var rec transport.RecoveryStats
		if durable, rec, err = transport.OpenDurableStore(store, cfg.dataDir, cfg.meta(), cfg.durable); err != nil {
			fatal(err)
		}
		store = durable
		if rec.SnapshotCursor > 0 || rec.Replayed > 0 {
			logger.Info("recovered", "dir", cfg.dataDir, "cursor", rec.SnapshotCursor,
				"replayed", rec.Replayed, "hellos", rec.Hellos, "reports", rec.Reports, "users", store.Users())
		}
	}
	srv := transport.NewIngestServer(store)
	srv.ErrorLog = func(err error) { logger.Error("serve", "err", err) }

	// Observability: every serving instrument lives in one registry,
	// mounted at /metrics when -metrics is set. The bounded queue (when
	// -queue is set) sheds acked batches whole under overload and
	// back-pressures legacy batch connections.
	reg := obs.NewRegistry()
	reg.SetInfo("component", "rtf-serve")
	reg.SetInfo("mechanism", cfg.mech)
	obs.RegisterProcessMetrics(reg)
	srv.Metrics = transport.NewServerMetrics(reg)
	if cfg.queue > 0 {
		srv.Queue = transport.NewIngestQueue(cfg.queue)
		srv.Metrics.RegisterQueue(srv.Queue)
	}
	if durable != nil {
		srv.Metrics.RegisterDurability(durable)
	}
	if sm != nil {
		reg.SetInfo("member_id", cfg.id)
		reg.GaugeFunc("membership_epoch", func() float64 { return float64(sm.Epoch()) })
		reg.GaugeFunc("membership_owned_shards", func() float64 { return float64(sm.OwnedShards()) })
	}
	metricsAddr := ""
	if cfg.metrics != "" {
		mln, err := net.Listen("tcp", cfg.metrics)
		if err != nil {
			fatal(err)
		}
		metricsAddr = mln.Addr().String()
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		if cfg.pprof {
			obs.MountPprof(mux)
		}
		go http.Serve(mln, mux)
	}

	stop := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Info("draining", "signal", s, "grace", cfg.grace)
		go func() {
			<-sig
			logger.Error("second signal: exiting immediately")
			os.Exit(1)
		}()
		close(stop)
		srv.Shutdown(cfg.grace)
	}()

	if durable != nil && cfg.snapEvery > 0 {
		go func() {
			tick := time.NewTicker(cfg.snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if _, err := durable.Snapshot(); err != nil {
						logger.Error("snapshot", "err", err)
					}
				case <-stop:
					return
				}
			}
		}()
	}

	if cfg.stats > 0 {
		go func() {
			tick := time.NewTicker(cfg.stats)
			defer tick.Stop()
			var lastReports int64
			last := time.Now()
			for range tick.C {
				hellos, reports, batches := store.Stats()
				now := time.Now()
				rate := float64(reports-lastReports) / now.Sub(last).Seconds()
				logger.Info("throughput", "users", hellos, "reports", reports,
					"batches", batches, "rate", fmt.Sprintf("%.0f", rate))
				lastReports, last = reports, now
			}
		}()
	}

	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(cfg.addr, ready) }()
	select {
	case a := <-ready:
		if cfg.membership {
			logger.Info("listening", "addr", a, "metrics", metricsAddr,
				"mechanism", cfg.mech, "d", cfg.d, "k", cfg.k, "m", cfg.m, "eps", cfg.eps,
				"member_id", cfg.id, "vshards", cfg.vshards, "queue", cfg.queue, "durable", durable != nil)
		} else {
			logger.Info("listening", "addr", a, "metrics", metricsAddr,
				"mechanism", cfg.mech, "d", cfg.d, "k", cfg.k, "m", cfg.m, "eps", cfg.eps,
				"encoding", cfg.encName, "buckets", cfg.buckets,
				"shards", cfg.shards, "queue", cfg.queue, "durable", durable != nil)
		}
	case err := <-errc:
		fatal(err)
	}
	if err := <-errc; err != nil {
		fatal(err)
	}

	// The serve loop has returned and every connection goroutine has
	// exited: the accumulator is quiescent. Flush the final snapshot so
	// a clean shutdown restarts without any WAL replay.
	if durable != nil {
		cursor, err := durable.Snapshot()
		if err != nil {
			fatal(err)
		}
		logger.Info("final snapshot", "cursor", cursor)
		if err := durable.Close(); err != nil {
			fatal(err)
		}
	}
	hellos, reports, batches := store.Stats()
	logger.Info("done", "users", hellos, "reports", reports, "batches", batches)
}

// hostable lists the registered mechanisms rtf-serve can host in the
// requested mode.
func hostable(domain bool) string {
	out := ""
	for _, m := range ldp.Mechanisms() {
		if domain && !m.Caps.Domain {
			continue
		}
		if !domain && !m.Caps.Sharded {
			continue
		}
		if out != "" {
			out += ", "
		}
		out += string(m.Protocol)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtf-serve:", err)
	os.Exit(1)
}
