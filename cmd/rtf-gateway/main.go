// Command rtf-gateway fronts N rtf-serve backends as one aggregation
// service: it speaks the same wire protocol as rtf-serve (batched
// hello/report ingestion, versioned v2 queries, raw-sums requests),
// hash-partitions ingested users across the backends by user id mod N,
// and answers every query by scatter/gather — it fetches
// each backend's raw per-interval bit sums and folds them into a fresh
// serial accumulator before estimating.
//
// Because the fold merges raw integer sums (not scaled float answers)
// and the estimator is a fixed linear function of them, a gateway
// answer is bit-for-bit identical to a single rtf-serve instance fed
// every backend's reports. A dead backend stalls queries — the gateway
// re-dials with exponential backoff and retries — rather than failing
// them, so a backend restarting from its snapshot+WAL rejoins
// transparently.
//
// With -m the gateway fronts domain-mode backends (rtf-serve -m): it
// partitions item-tagged ingest the same way and answers the item-
// scoped query shapes — point-item, series-item, top-k — by fetching
// every backend's per-item raw sums, with the same bit-for-bit
// exactness argument.
//
// With -encoding loloha (plus -buckets and -hash-seed, matching the
// backends) the gateway fronts hashed-domain backends: ingest carries
// bucket-tagged frames, and queries gather each backend's raw bucket
// sums with an encoding-checked request — a backend hashing under a
// different seed or sized differently refuses it — before decoding
// item estimates from the folded bucket counters.
//
// The protocol parameters (-mechanism, -d, -k, -m, -eps) must match the
// backends' and the clients'; the mechanism must have the clustered
// capability (its server state merges exactly across machines).
//
// With -members (instead of -backends) the gateway runs in dynamic
// membership mode against rtf-serve -membership backends: users map to
// -vshards virtual shards, each shard is placed on -replicas members by
// rendezvous hashing of an epoched cluster view, ingest is replicated
// to every owner, and queries quorum-read each shard from its owners
// with exact-integer divergence detection — so answers stay bit-for-
// bit exact and survive any single member death. POST
// /membership/reshard on the -metrics listener installs a new member
// list: the gateway fences in-flight forwards, moves only the shards
// whose ownership changed (snapshot handoff over the wire), and bumps
// the epoch.
//
// Both topologies are one cluster.Gateway over a placement: -backends is
// the view that never changes (N shards, one owner each, every backend
// read whole), -members the epoched rendezvous view read per owned
// shard. Every mode, the answer cache, -hedge, -fetch-timeout and
// -answer-cache-ttl work over either (see the "serving core" section of
// README.md).
//
// The process logs in logfmt to stderr and -metrics mounts a JSON
// snapshot of every instrument — including per-backend scatter-fetch
// latency histograms — at http://ADDR/metrics. -queue bounds
// concurrent batch admission before anything is forwarded: a shed
// acked batch gets a negative ack and reaches no backend at all.
// -fetch-timeout deadlines each scatter fetch (retried on a fresh
// connection), and -hedge races a slow clean-session fetch against a
// second connection, first answer winning.
//
// Examples:
//
//	rtf-serve -addr :7610 -d 1024 -k 8 &
//	rtf-serve -addr :7611 -d 1024 -k 8 &
//	rtf-serve -addr :7612 -d 1024 -k 8 -data-dir /var/lib/rtf &
//	rtf-gateway -addr :7609 -backends localhost:7610,localhost:7611,localhost:7612 -d 1024 -k 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rtf/internal/cluster"
	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/membership"
	"rtf/internal/obs"
	"rtf/internal/transport"
	"rtf/ldp"
)

// config is the parsed and cross-checked flag set.
type config struct {
	addr, mech string
	d, k, m    int
	eps        float64
	enc        hh.DomainEncoding // hashed mode only; zero otherwise
	scale      float64
	mode       transport.Mode
	opts       transport.ClusterOptions
	grace      time.Duration
	metrics    string
	queue      int
	cacheTTL   time.Duration
	pprof      bool

	backends []string // static partition map; nil under -members

	members  []membership.Member // dynamic membership; nil under -backends
	replicas int
	vshards  int
}

// parseConfig parses args and refuses every unsupported combination
// with a message naming the flags at fault, before anything listens or
// dials.
func parseConfig(args []string) (config, error) {
	var (
		c                 config
		backends, members string
		encName           string
		buckets           int
		hseed             uint64
	)
	fs := flag.NewFlagSet("rtf-gateway", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":7609", "TCP listen address")
	fs.StringVar(&backends, "backends", "", "comma-separated rtf-serve backend addresses; the order is the partition map (user mod N) and must match every other gateway")
	fs.StringVar(&c.mech, "mechanism", "futurerand", "mechanism the backends host (must have the clustered capability); must match backends and clients")
	fs.IntVar(&c.d, "d", 1024, "time periods (power of two); must match backends and clients")
	fs.IntVar(&c.k, "k", 8, "max changes per user; must match backends and clients")
	fs.IntVar(&c.m, "m", 0, "domain size for domain-valued tracking (0 = Boolean protocol); must match backends and clients")
	fs.StringVar(&encName, "encoding", hh.EncodingExact, "domain encoding with -m: exact or loloha; must match backends and clients")
	fs.IntVar(&buckets, "buckets", 0, "bucket count g with -encoding loloha (2..4096); must match backends and clients")
	fs.Uint64Var(&hseed, "hash-seed", 0, "shared epoch hash seed with -encoding loloha; must match backends and clients")
	fs.Float64Var(&c.eps, "eps", 1.0, "privacy budget (0 < eps <= 1); must match backends and clients")
	fs.IntVar(&c.opts.DialAttempts, "dial-attempts", 10, "re-dial attempts per backend operation (exponential backoff between attempts)")
	fs.IntVar(&c.opts.PoolSize, "pool", 4, "idle connections pooled per backend")
	fs.DurationVar(&c.grace, "grace", 10*time.Second, "how long a shutdown signal lets in-flight connections drain")
	fs.StringVar(&c.metrics, "metrics", "", "serve the metrics snapshot (JSON) at http://ADDR/metrics; empty = off")
	fs.IntVar(&c.queue, "queue", 0, "bounded ingest admission queue capacity: acked batches beyond it are shed whole before any forward, legacy batches block (0 = unbounded)")
	fs.DurationVar(&c.opts.FetchTimeout, "fetch-timeout", 0, "per-backend scatter fetch deadline; a timed-out fetch is retried on a fresh connection (0 = no deadline)")
	fs.DurationVar(&c.opts.HedgeDelay, "hedge", 0, "hedged-read delay: a clean-session fetch not answered within this is raced against a fresh connection (0 = off)")
	fs.StringVar(&members, "members", "", "dynamic membership mode: comma-separated id=addr member list (mutually exclusive with -backends); backends must run rtf-serve -membership")
	fs.IntVar(&c.replicas, "replicas", 2, "replication factor K under -members: every virtual shard is written to and quorum-read from K members")
	fs.IntVar(&c.vshards, "vshards", 64, "virtual shard count under -members; must match the backends' -vshards")
	fs.DurationVar(&c.cacheTTL, "answer-cache-ttl", 0, "bounded-staleness reads: serve a cached scatter/gather up to this old to clean sessions even when ingest has advanced; a writer's read-your-writes fence refreshes it sooner (0 = off; the cache then serves only provably exact entries)")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/ on the -metrics listener")
	if err := fs.Parse(args); err != nil {
		return c, err
	}

	if !dyadic.IsPow2(c.d) {
		return c, fmt.Errorf("d=%d is not a power of two", c.d)
	}
	mc, ok := ldp.Lookup(ldp.Protocol(c.mech))
	if !ok {
		return c, fmt.Errorf("unknown mechanism %q; clustered mechanisms: %s", c.mech, clustered())
	}
	if !mc.Caps.Clustered {
		return c, fmt.Errorf("mechanism %q cannot be clustered (its server state does not merge across machines); clustered mechanisms: %s", c.mech, clustered())
	}
	if c.m > 0 {
		if err := ldp.ValidateDomainSize(c.m, encName); err != nil {
			return c, err
		}
		if !mc.Caps.Domain {
			return c, fmt.Errorf("mechanism %q cannot host domain tracking", c.mech)
		}
		if encName == hh.EncodingLoloha {
			if !mc.Caps.HashedDomain {
				return c, fmt.Errorf("mechanism %q cannot host hashed domain tracking", c.mech)
			}
			c.enc = hh.LolohaEncoding(c.m, buckets, hseed)
			if err := c.enc.Validate(); err != nil {
				return c, err
			}
		} else if buckets != 0 || hseed != 0 {
			return c, fmt.Errorf("-buckets and -hash-seed only apply with -encoding loloha")
		}
	} else if encName != hh.EncodingExact || buckets != 0 || hseed != 0 {
		return c, fmt.Errorf("-encoding, -buckets and -hash-seed require domain mode (-m)")
	}
	var err error
	if c.scale, err = mc.EstimatorScale(ldp.Params{D: c.d, K: c.k, Eps: c.eps}); err != nil {
		return c, err
	}
	switch {
	case c.enc.Hashed():
		c.mode = transport.HashedMode(c.d, c.enc, c.scale)
	case c.m > 0:
		c.mode = transport.DomainMode(c.d, c.m, c.scale)
	default:
		c.mode = transport.BoolMode(c.d, c.scale)
	}
	if members == "" {
		c.backends, err = parseBackends(backends)
		return c, err
	}
	if backends != "" {
		return c, fmt.Errorf("-members and -backends are mutually exclusive: one gateway fronts either a static partition map or a dynamic member set")
	}
	if c.members, err = membership.ParseMembers(members); err != nil {
		return c, err
	}
	if c.vshards < 1 || c.vshards > membership.MaxShards {
		return c, fmt.Errorf("vshards=%d outside [1..%d]", c.vshards, membership.MaxShards)
	}
	return c, nil
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fatal(err)
	}
	logger := obs.NewLogger(os.Stderr, "rtf-gateway")
	place, listening := cluster.Static(cfg.backends), []any{"backends", strings.Join(cfg.backends, ",")}
	if cfg.members != nil {
		place = cluster.Members(cfg.vshards, cfg.replicas, cfg.members)
		listening = []any{"members", len(cfg.members), "replicas", cfg.replicas, "vshards", cfg.vshards}
	}
	gw, err := cluster.New(cfg.mode, place, cfg.opts)
	if err != nil {
		fatal(err)
	}
	gw.AnswerCacheTTL = cfg.cacheTTL
	var mount func(*obs.Registry, *http.ServeMux)
	if cfg.members != nil {
		// Backends may still be coming up; the announce rides the pool's
		// dial backoff.
		if err := gw.AnnounceView(); err != nil {
			fatal(err)
		}
		logView(logger, gw.View())
		mount = membershipAdmin(logger, gw)
	}
	serve(logger, cfg, gw.Server, mount, listening)
}

// serve runs one gateway front to completion: metrics registry and
// listener (mount adds front-specific instruments and handlers), signal
// handling, and the listening line. It does not return except through
// fatal or a clean drain.
func serve(logger *obs.Logger, cfg config, srv *transport.Server,
	mount func(reg *obs.Registry, mux *http.ServeMux), listening []any) {
	srv.ErrorLog = func(err error) { logger.Error("gateway", "err", err) }
	reg := obs.NewRegistry()
	reg.SetInfo("component", "rtf-gateway")
	reg.SetInfo("mechanism", cfg.mech)
	obs.RegisterProcessMetrics(reg)
	srv.Metrics = transport.NewServerMetrics(reg)
	if cfg.queue > 0 {
		srv.Queue = transport.NewIngestQueue(cfg.queue)
		srv.Metrics.RegisterQueue(srv.Queue)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	if mount != nil {
		mount(reg, mux)
	}
	metricsAddr := ""
	if cfg.metrics != "" {
		mln, err := net.Listen("tcp", cfg.metrics)
		if err != nil {
			fatal(err)
		}
		metricsAddr = mln.Addr().String()
		if cfg.pprof {
			obs.MountPprof(mux)
		}
		go http.Serve(mln, mux)
	}

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
		srv.Shutdown(cfg.grace)
	}()

	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(cfg.addr, ready) }()
	select {
	case a := <-ready:
		logger.Info("listening", append([]any{"addr", a, "metrics", metricsAddr,
			"mechanism", cfg.mech, "d", cfg.d, "k", cfg.k, "m", cfg.m, "eps", cfg.eps,
			"queue", cfg.queue}, listening...)...)
	case err := <-errc:
		fatal(err)
	}
	if err := <-errc; err != nil {
		fatal(err)
	}
	logger.Info("done")
}

// parseBackends splits the -backends flag into the ordered partition
// map, rejecting empty and duplicate addresses: a duplicate would
// silently halve one partition's capacity and double-count its sums,
// and an empty element is a typo the dial loop would otherwise turn
// into a confusing connection error at the first query.
func parseBackends(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-backends is required (or use -members for dynamic membership)")
	}
	parts := strings.Split(spec, ",")
	addrs := make([]string, 0, len(parts))
	seen := make(map[string]int, len(parts))
	for i, a := range parts {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("-backends element %d is empty", i)
		}
		if j, dup := seen[a]; dup {
			return nil, fmt.Errorf("-backends lists %s twice (elements %d and %d); a duplicate backend would double-count its partition", a, j, i)
		}
		seen[a] = i
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// clustered lists the registered mechanisms a gateway can front.
func clustered() string {
	out := ""
	for _, m := range ldp.Mechanisms() {
		if !m.Caps.Clustered {
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
	fmt.Fprintln(os.Stderr, "rtf-gateway:", err)
	os.Exit(1)
}
