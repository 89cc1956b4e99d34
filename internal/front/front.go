// Package front is what the two serving binaries, rtf-serve and
// rtf-gateway, share. It has two parts:
//
//   - the protocol block: the flags every node and client of a
//     deployment must agree on (-mechanism -d -k -m -encoding -buckets
//     -hash-seed -eps), checked and resolved to the estimator scale, the
//     transport.Mode and the persist.Meta of a data directory;
//   - the lifecycle block: the flags of one serving process (-addr
//     -metrics -pprof -queue -grace) and Serve, which runs a
//     transport.Server from its metrics registry to its drain.
//
// Both fronts serve only dyadic mechanisms (ldp.Mechanism.Dyadic):
// their server state is the sharded accumulator, whose integer counters
// also merge across machines. What differs is how each binary words the
// refusal of any other mechanism.
package front

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/obs"
	"rtf/internal/persist"
	"rtf/internal/probmath"
	"rtf/internal/transport"
	"rtf/ldp"
)

// Role is the binary a front runs as: its name and how it refuses a
// mechanism that is not dyadic.
type Role struct {
	Name  string
	lacks string // refusal of a mechanism that is not dyadic
	kind  string // what a refusal's list of dyadic mechanisms is called
}

// The two fronts.
var (
	Node    = Role{"rtf-serve", "cannot be hosted on the sharded accumulator", "hostable"}
	Gateway = Role{"rtf-gateway", "cannot be clustered (its server state does not merge across machines)", "clustered mechanisms"}
)

// Parse parses args into fs without the flag package's own printing, so
// a refused flag — an unknown name included — reaches Exit, which names
// the binary first on stderr. -h still prints the usage to fs's output
// and returns flag.ErrHelp.
func Parse(fs *flag.FlagSet, args []string) error {
	out := fs.Output()
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(out)
		fs.Usage()
	}
	return err
}

// Exit ends the process over err: status 0 for a -h request, else the
// error on stderr after the binary's name, and status 1.
func (r Role) Exit(err error) {
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	fmt.Fprintln(os.Stderr, r.Name+":", err)
	os.Exit(1)
}

// Config is both blocks' flags and what Resolve makes of them.
type Config struct {
	// The protocol block; must match every node and client.
	Mech     string
	D, K, M  int
	Encoding string
	Buckets  int
	HashSeed uint64
	Eps      float64

	// The lifecycle block.
	Addr, Metrics string
	Pprof         bool
	Queue         int
	Grace         time.Duration

	// Set by Resolve.
	role  Role
	Scale float64
	Mode  transport.Mode
}

// Register adds both blocks' flags to fs.
func (c *Config) Register(fs *flag.FlagSet) {
	const agree = "; must match every node and client of the deployment"
	fs.StringVar(&c.Mech, "mechanism", "futurerand", "mechanism: a dyadic one, whose server is the sharded accumulator"+agree)
	fs.IntVar(&c.D, "d", 1024, "time periods (power of two)"+agree)
	fs.IntVar(&c.K, "k", 8, fmt.Sprintf("max changes per user (at most %d)", probmath.MaxVerifiedK)+agree)
	fs.IntVar(&c.M, "m", 0, "domain size for domain-valued tracking (0 = Boolean protocol)"+agree)
	fs.StringVar(&c.Encoding, "encoding", hh.EncodingExact, "domain encoding with -m: exact (one row per item) or loloha (hash to -buckets rows)"+agree)
	fs.IntVar(&c.Buckets, "buckets", 0, "bucket count g with -encoding loloha (2..4096)"+agree)
	fs.Uint64Var(&c.HashSeed, "hash-seed", 0, "shared epoch hash seed with -encoding loloha"+agree)
	fs.Float64Var(&c.Eps, "eps", 1.0, "privacy budget (0 < eps <= 1)"+agree)
	fs.StringVar(&c.Addr, "addr", ":7609", "TCP listen address")
	fs.StringVar(&c.Metrics, "metrics", "", "serve the metrics snapshot (JSON) at http://ADDR/metrics; empty = off")
	fs.BoolVar(&c.Pprof, "pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/ on the -metrics listener")
	fs.IntVar(&c.Queue, "queue", 0, "bounded ingest admission queue capacity: acked batches beyond it are shed whole before anything is applied or forwarded, legacy batches block (0 = unbounded)")
	fs.DurationVar(&c.Grace, "grace", 10*time.Second, "how long a shutdown signal lets in-flight connections drain")
}

// Hashed reports whether the flags select the loloha encoding.
func (c *Config) Hashed() bool { return c.Encoding == hh.EncodingLoloha }

// Resolve checks the protocol block for role r, refusing every
// unsupported combination with a message naming the flags at fault, and
// sets Scale and Mode.
func (c *Config) Resolve(r Role) error {
	if !dyadic.IsPow2(c.D) {
		return fmt.Errorf("d=%d is not a power of two", c.D)
	}
	if err := probmath.CheckVerifiedK(c.K); err != nil {
		return fmt.Errorf("-%w", err)
	}
	mc, ok := ldp.Lookup(ldp.Protocol(c.Mech))
	if !ok {
		return fmt.Errorf("unknown mechanism %q; %s: %s", c.Mech, r.kind, dyadicMechanisms())
	}
	var enc hh.DomainEncoding
	if c.M > 0 {
		if err := ldp.ValidateDomainSize(c.M, c.Encoding); err != nil {
			return err
		}
		if !mc.Dyadic() {
			return fmt.Errorf("mechanism %q cannot host domain tracking; domain-capable: %s", c.Mech, dyadicMechanisms())
		}
		if c.Hashed() {
			enc = hh.LolohaEncoding(c.M, c.Buckets, c.HashSeed)
			if err := enc.Validate(); err != nil {
				return err
			}
		} else if c.Buckets != 0 || c.HashSeed != 0 {
			return fmt.Errorf("-buckets and -hash-seed only apply with -encoding loloha")
		} else {
			enc = hh.ExactEncoding(c.M)
		}
	} else if c.Encoding != hh.EncodingExact || c.Buckets != 0 || c.HashSeed != 0 {
		return fmt.Errorf("-encoding, -buckets and -hash-seed require domain mode (-m)")
	}
	if !mc.Dyadic() {
		return fmt.Errorf("mechanism %q %s; %s: %s", c.Mech, r.lacks, r.kind, dyadicMechanisms())
	}
	var err error
	if c.Scale, err = mc.EstimatorScale(ldp.Params{D: c.D, K: c.K, Eps: c.Eps}); err != nil {
		return err
	}
	if c.M > 0 {
		c.Mode = transport.DomainMode(c.D, enc, c.Scale)
	} else {
		c.Mode = transport.BoolMode(c.D, c.Scale)
	}
	c.role = r
	return nil
}

// dyadicMechanisms lists the registered dyadic mechanisms.
func dyadicMechanisms() string {
	var names []string
	for _, m := range ldp.Mechanisms() {
		if m.Dyadic() {
			names = append(names, string(m.Protocol))
		}
	}
	return strings.Join(names, ", ")
}

// Meta describes the resolved protocol as recorded in (and checked
// against) every snapshot of a data directory.
func (c *Config) Meta() persist.Meta {
	meta := persist.Meta{Mechanism: c.Mech, D: c.D, K: c.K, M: c.M, Eps: c.Eps, Scale: c.Scale}
	if c.Hashed() {
		meta.Encoding, meta.G, meta.HashSeed = c.Encoding, c.Buckets, c.HashSeed
	}
	return meta
}

// Hooks is what one front adds to the shared lifecycle.
type Hooks struct {
	// Mount adds the front's instruments and handlers; it runs once the
	// server metrics exist, before anything listens.
	Mount func(reg *obs.Registry, mux *http.ServeMux)
	// Drain runs first on a shutdown signal, before the server drains.
	Drain func()
	// Listening is the front's own key/value pairs for the listening line.
	Listening []any
}

// Serve runs srv until it has drained after SIGINT or SIGTERM (a second
// signal exits at once, status 1): the metrics registry and its
// listener (with pprof when asked), the admission queue, the caller's
// mount, and the logfmt listening line whose addr and metrics keys
// tools parse to find the process. It returns the error that stopped
// the server, nil after a clean drain.
func (c *Config) Serve(logger *obs.Logger, srv *transport.Server, h Hooks) error {
	srv.ErrorLog = func(err error) { logger.Error("serve", "err", err) }
	reg := c.registry()
	srv.Metrics = transport.NewServerMetrics(reg)
	if c.Queue > 0 {
		srv.Queue = transport.NewIngestQueue(c.Queue)
		srv.Metrics.RegisterQueue(srv.Queue)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	if h.Mount != nil {
		h.Mount(reg, mux)
	}
	metricsAddr := ""
	if c.Metrics != "" {
		mln, err := net.Listen("tcp", c.Metrics)
		if err != nil {
			return err
		}
		metricsAddr = mln.Addr().String()
		if c.Pprof {
			obs.MountPprof(mux)
		}
		go http.Serve(mln, mux)
	}

	sig := make(chan os.Signal, 2) // the drain's signal and the one that cuts it short
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Info("draining", "signal", s, "grace", c.Grace)
		go func() {
			<-sig
			logger.Error("second signal: exiting immediately")
			os.Exit(1)
		}()
		if h.Drain != nil {
			h.Drain()
		}
		srv.Shutdown(c.Grace)
	}()

	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(c.Addr, ready) }()
	select {
	case a := <-ready:
		kv := append([]any{"addr", a, "metrics", metricsAddr}, c.protocol()...)
		logger.Info("listening", append(append(kv, "queue", c.Queue), h.Listening...)...)
	case err := <-errc:
		return err
	}
	return <-errc
}

// protocol is the protocol in force as key/value pairs, for the
// listening line and the metrics info map.
func (c *Config) protocol() []any {
	return []any{"mechanism", c.Mech, "d", c.D, "k", c.K, "m", c.M, "eps", c.Eps, "encoding", c.Encoding,
		"buckets", c.Buckets, "hash_seed", c.HashSeed, "scale", c.Scale}
}

// registry builds the front's metrics registry: the process metrics and
// an info map naming the front and the protocol in force.
func (c *Config) registry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.SetInfo("component", c.role.Name)
	for kv := c.protocol(); len(kv) > 0; kv = kv[2:] {
		reg.SetInfo(kv[0].(string), fmt.Sprint(kv[1]))
	}
	obs.RegisterProcessMetrics(reg)
	return reg
}
