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
// per-shard raw-sums requests (the gateway's quorum reads, and its
// export of a shard to reshard) and shard transfer installs (reshard
// handoffs). Works for
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
// The protocol parameters (-mechanism, -d, -k, -m, -encoding, -buckets,
// -hash-seed, -eps) must match the clients'; they determine the
// estimator scale of Algorithm 2 and are recorded in every snapshot, so
// a data directory written under different parameters is rejected at
// boot rather than misread. They and the process flags (-addr, -metrics,
// -pprof, -queue, -grace) are rtf-gateway's too: both binaries resolve
// them and run the serve lifecycle through internal/front.
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
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"rtf/internal/front"
	"rtf/internal/membership"
	"rtf/internal/obs"
	"rtf/internal/transport"
)

// config is the parsed and cross-checked flag set: the shared protocol
// and lifecycle blocks, then rtf-serve's own store, durability and
// membership flags.
type config struct {
	front.Config
	shards     int
	stats      time.Duration
	dataDir    string
	snapEvery  time.Duration
	durable    transport.DurableOptions
	membership bool
	id         string
	vshards    int
}

// parseConfig parses args and refuses every unsupported combination
// with a message naming the flags at fault, before anything listens.
func parseConfig(args []string) (config, error) {
	var c config
	if err := flagSet(&c).Parse(args); err != nil {
		return c, err
	}
	err := c.check()
	return c, err
}

// flagSet registers every rtf-serve flag on a fresh set, bound to c.
func flagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("rtf-serve", flag.ContinueOnError)
	c.Register(fs)
	fs.IntVar(&c.shards, "shards", runtime.GOMAXPROCS(0), "accumulator shards (>= 1)")
	fs.DurationVar(&c.stats, "stats", 0, "print throughput every interval (0 = off)")
	fs.StringVar(&c.dataDir, "data-dir", "", "persist state here (snapshot + write-ahead log); empty = in-memory only")
	fs.DurationVar(&c.snapEvery, "snapshot-every", time.Minute, "periodic snapshot interval with -data-dir (0 = final snapshot only)")
	fs.BoolVar(&c.durable.Fsync, "fsync", false, "fsync the WAL after every append (survive power loss, not just crashes)")
	fs.DurationVar(&c.durable.GroupCommitInterval, "wal-commit-interval", 0, "WAL group-commit coalescing window: batches from all connections arriving within it are committed with one write and at most one fsync; acks still mean journaled/durable (0 = one write+fsync per batch)")
	fs.BoolVar(&c.durable.TolerateTornTail, "tolerate-torn-tail", false, "boot through a torn final WAL record (the artifact of a power loss mid-append) by truncating it; off = fail with a descriptive error so the operator decides")
	fs.BoolVar(&c.membership, "membership", false, "membership mode: host one accumulator per virtual shard and serve the dynamic-cluster control plane (view pushes, per-shard sums, shard transfers) for an rtf-gateway -members front")
	fs.StringVar(&c.id, "id", "", "this backend's member ID under -membership (must match the gateway's -members entry)")
	fs.IntVar(&c.vshards, "vshards", 64, "virtual shard count under -membership; must match the gateway's -vshards")
	return fs
}

// check resolves the protocol block for a single node and refuses
// every unsupported combination of rtf-serve's own flags.
func (c *config) check() error {
	if err := c.Resolve(front.Node); err != nil {
		return err
	}
	if c.shards < 1 {
		return fmt.Errorf("shards=%d must be >= 1", c.shards)
	}
	if c.membership {
		if c.id == "" {
			return fmt.Errorf("-membership requires -id (the member ID the gateway routes by)")
		}
		if c.vshards < 1 || c.vshards > membership.MaxShards {
			return fmt.Errorf("vshards=%d outside [1..%d]", c.vshards, membership.MaxShards)
		}
	}
	return nil
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
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
	listening := []any{"shards", cfg.shards}
	if cfg.membership {
		sm = transport.NewShardMap(cfg.Mode, cfg.vshards, cfg.id)
		store = sm
		listening = []any{"member_id", cfg.id, "vshards", cfg.vshards}
	} else {
		store = transport.NewCollector(cfg.Mode, cfg.shards)
	}
	if cfg.dataDir != "" {
		var rec transport.RecoveryStats
		if durable, rec, err = transport.OpenDurableStore(store, cfg.dataDir, cfg.Meta(), cfg.durable); err != nil {
			fatal(err)
		}
		store = durable
		if rec.SnapshotCursor > 0 || rec.Replayed > 0 {
			logger.Info("recovered", "dir", cfg.dataDir, "cursor", rec.SnapshotCursor,
				"replayed", rec.Replayed, "hellos", rec.Hellos, "reports", rec.Reports, "users", store.Users())
		}
	}
	srv := transport.NewIngestServer(store)

	// The tickers stop when the drain starts.
	stop := make(chan struct{})
	if durable != nil && cfg.snapEvery > 0 {
		go every(cfg.snapEvery, stop, func() {
			if _, err := durable.Snapshot(); err != nil {
				logger.Error("snapshot", "err", err)
			}
		})
	}
	if cfg.stats > 0 {
		var lastReports int64
		last := time.Now()
		go every(cfg.stats, stop, func() {
			hellos, reports, batches := store.Stats()
			rate := float64(reports-lastReports) / time.Since(last).Seconds()
			logger.Info("throughput", "users", hellos, "reports", reports,
				"batches", batches, "rate", fmt.Sprintf("%.0f", rate))
			lastReports, last = reports, time.Now()
		})
	}

	err = cfg.Serve(logger, srv.Server, front.Hooks{
		Mount: func(reg *obs.Registry, _ *http.ServeMux) {
			if durable != nil {
				srv.Metrics.RegisterDurability(durable)
			}
			if sm != nil {
				reg.SetInfo("member_id", cfg.id)
				reg.GaugeFunc("membership_epoch", func() float64 { return float64(sm.Epoch()) })
				reg.GaugeFunc("membership_owned_shards", func() float64 { return float64(sm.OwnedShards()) })
			}
		},
		Drain:     func() { close(stop) },
		Listening: append(listening, "durable", durable != nil),
	})
	if err != nil {
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

// every calls fn every d until stop is closed.
func every(d time.Duration, stop <-chan struct{}, fn func()) {
	tick := time.NewTicker(d)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			fn()
		case <-stop:
			return
		}
	}
}

// fatal ends the process over a flag or serving error.
var fatal = front.Node.Exit
