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
// The protocol parameters (-mechanism, -d, -k, -m, -encoding, -buckets,
// -hash-seed, -eps) must match the backends' and the clients'; the
// mechanism must be dyadic (its integer counters merge exactly across
// machines), and -k at most 1024. They and the process flags (-addr,
// -metrics, -pprof, -queue, -grace) are rtf-serve's too: both binaries
// resolve them and run the serve lifecycle through internal/front.
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
// shard. Every mode, the answer cache and -fetch-timeout work over
// either (see the "serving core" section of README.md). The answer cache
// is exact-only: it serves an entry only while the ingest epoch proves
// it bit-for-bit equal to a fresh scatter/gather.
//
// The process logs in logfmt to stderr and -metrics mounts a JSON
// snapshot of every instrument — including per-backend scatter-fetch
// latency histograms — at http://ADDR/metrics. -queue bounds
// concurrent batch admission before anything is forwarded: a shed
// acked batch gets a negative ack and reaches no backend at all.
// -fetch-timeout deadlines each scatter fetch: a hung backend
// connection costs at most that long, after which a clean session
// retries on a fresh connection.
//
// Examples:
//
//	rtf-serve -addr :7610 -d 1024 -k 8 &
//	rtf-serve -addr :7611 -d 1024 -k 8 &
//	rtf-serve -addr :7612 -d 1024 -k 8 -data-dir /var/lib/rtf &
//	rtf-gateway -addr :7609 -backends localhost:7610,localhost:7611,localhost:7612 -d 1024 -k 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rtf/internal/cluster"
	"rtf/internal/front"
	"rtf/internal/membership"
	"rtf/internal/obs"
	"rtf/internal/transport"
)

// config is the parsed and cross-checked flag set: the shared protocol
// and lifecycle blocks, then rtf-gateway's own placement and cluster
// flags.
type config struct {
	front.Config
	opts transport.ClusterOptions

	backends []string // static partition map; nil under -members

	members           []membership.Member // dynamic membership; nil under -backends
	replicas, vshards int

	backendsSpec, membersSpec string // the raw flags check resolves
}

// parseConfig parses args and refuses every unsupported combination
// with a message naming the flags at fault, before anything listens or
// dials.
func parseConfig(args []string) (config, error) {
	var c config
	if err := front.Parse(flagSet(&c), args); err != nil {
		return c, err
	}
	err := c.check()
	return c, err
}

// flagSet registers every rtf-gateway flag on a fresh set, bound to c.
func flagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("rtf-gateway", flag.ContinueOnError)
	c.Register(fs)
	fs.StringVar(&c.backendsSpec, "backends", "", "comma-separated rtf-serve backend addresses; the order is the partition map (user mod N) and must match every other gateway")
	fs.IntVar(&c.opts.DialAttempts, "dial-attempts", 10, "re-dial attempts per backend operation (exponential backoff between attempts)")
	fs.IntVar(&c.opts.PoolSize, "pool", 4, "idle connections pooled per backend")
	fs.DurationVar(&c.opts.FetchTimeout, "fetch-timeout", 0, "per-backend scatter fetch deadline; a timed-out fetch is retried on a fresh connection (0 = no deadline)")
	fs.StringVar(&c.membersSpec, "members", "", "dynamic membership mode: comma-separated id=addr member list (mutually exclusive with -backends); backends must run rtf-serve -membership")
	fs.IntVar(&c.replicas, "replicas", 2, "replication factor K under -members: every virtual shard is written to and quorum-read from K members")
	fs.IntVar(&c.vshards, "vshards", 64, "virtual shard count under -members; must match the backends' -vshards")
	return fs
}

// check resolves the protocol block for a gateway and the placement,
// refusing every unsupported combination.
func (c *config) check() error {
	if err := c.Resolve(front.Gateway); err != nil {
		return err
	}
	var err error
	if c.membersSpec == "" {
		c.backends, err = parseBackends(c.backendsSpec)
		return err
	}
	if c.backendsSpec != "" {
		return fmt.Errorf("-members and -backends are mutually exclusive: one gateway fronts either a static partition map or a dynamic member set")
	}
	if c.members, err = membership.ParseMembers(c.membersSpec); err != nil {
		return err
	}
	if c.vshards < 1 || c.vshards > membership.MaxShards {
		return fmt.Errorf("vshards=%d outside [1..%d]", c.vshards, membership.MaxShards)
	}
	return nil
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	logger := obs.NewLogger(os.Stderr, "rtf-gateway")
	place, hooks := cluster.Static(cfg.backends), front.Hooks{Listening: []any{"backends", strings.Join(cfg.backends, ",")}}
	if cfg.members != nil {
		place = cluster.Members(cfg.vshards, cfg.replicas, cfg.members)
		hooks.Listening = []any{"members", len(cfg.members), "replicas", cfg.replicas, "vshards", cfg.vshards}
	}
	gw, err := cluster.New(cfg.Mode, place, cfg.opts)
	if err != nil {
		fatal(err)
	}
	if cfg.members != nil {
		// Backends may still be coming up; the announce rides the pool's
		// dial backoff.
		if err := gw.AnnounceView(); err != nil {
			fatal(err)
		}
		logView(logger, gw.View())
		hooks.Mount = membershipAdmin(logger, gw)
	}
	if err := cfg.Serve(logger, gw.Server, hooks); err != nil {
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
	addrs := strings.Split(spec, ",")
	seen := make(map[string]int, len(addrs))
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("-backends element %d is empty", i)
		}
		if j, dup := seen[a]; dup {
			return nil, fmt.Errorf("-backends lists %s twice (elements %d and %d); a duplicate backend would double-count its partition", a, j, i)
		}
		seen[a], addrs[i] = i, a
	}
	return addrs, nil
}

// fatal ends the process over a flag or serving error.
var fatal = front.Gateway.Exit
