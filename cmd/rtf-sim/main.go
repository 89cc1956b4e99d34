// Command rtf-sim runs one end-to-end protocol execution on a synthetic
// workload and reports error metrics, optionally dumping the estimate
// series as CSV — and, given a scenario's flags, is the acceptance
// harness that holds a deployment to the protocol's keystone invariant:
// every served answer is bit-for-bit an uninterrupted serial engine's,
// because estimates are fixed linear functions of exact integer counters.
//
// A scenario is a row of one table (scenario.go): the flags that select
// it, a protocol mode (mode.go), a topology of real rtf-serve and
// rtf-gateway processes (deploy.go; binaries via -serve-bin and
// -gateway-bin, else next to this one, else $PATH) and a choreography run
// over the two by one driver (driver.go), which ships per-user clients'
// real randomized reports over -conns TCP connections in batches of
// -batch and checks every answer against an in-process ldp server fed
// the same reports. A flag combination that is not a row is refused.
//
//	flags                       mode     topology                       choreography
//	(none)                      —        —                              offline run (below)
//	-drive ADDR                 Boolean  the operator's server at ADDR  crash, nothing to kill
//	-recover                    Boolean  one durable rtf-serve          crash
//	-cluster                    Boolean  gateway over 3, b0 durable     crash
//	-domain                     exact    gateway over 3, b0 durable     crash
//	-domain -hashed             hashed   gateway over 3, b0 durable     crash
//	-recover -domain            exact    one durable rtf-serve          crash
//	-recover -domain -hashed    hashed   one durable rtf-serve          crash
//	-membership                 Boolean  member gateway over 3 (+1)     membership
//	-membership -domain         exact    member gateway over 3 (+1)     membership
//	-membership -domain -hashed hashed   member gateway over 3 (+1)     membership
//	-soak [-soak-backends N]    Boolean  one durable rtf-serve, or a    soak
//	                                     gateway over N, bounded queue
//
// The modes: Boolean verifies the point estimate of every period plus
// point, change, series and window frames; exact domain (-m items, Zipf
// -zipf-s) verifies PointItem and SeriesItem for every item and TopK;
// hashed domain (LOLOHA, -buckets rows for a catalogue that may be far
// past the exact 4096-item cap) verifies TopK over the whole catalogue
// and a sample of items, and bounds the recovered backend's RSS by a
// ceiling derived from the bucket count, not the catalogue.
//
// crash: ingest half the users in two chunks around a periodic snapshot,
// verify, kill -9 the durable backend under a doomed stream of phantom
// hellos, restart it on the same port and data directory (snapshot + WAL
// recovery), verify, ingest the rest, verify, SIGTERM everything — every
// process must drain and exit 0. With -drive there is nothing to kill:
// ingest, verify, report; the server must be freshly started with the
// same -mechanism, -d, -k and -eps, since its state is cumulative.
//
// membership: over K=2 replicas and 16 virtual shards, ingest in thirds;
// a fourth backend joins by the reshard API mid-ingest (the rendezvous
// plan must move only ~1/N of the shard replicas), one backend drains via
// snapshot handoff and must SIGTERM-exit 0, one surviving replica is
// kill -9ed under a doomed stream aimed at its own shards — verified at
// every stage, with the gateway's epoch, transfer, divergence and
// short-read gauges checked at the end.
//
// soak: paced acked-batch ingest at -qps for -duration over closed-loop
// connections, /metrics scraped throughout, an early burst until the
// bounded admission queue (-queue) sheds a batch; asserts sustained QPS,
// steady RSS, queue depth never past capacity, p99 ingest latency under
// -p99-ceiling, the server's counter ledger equal to the harness's own,
// and every answer bit-for-bit a reference fed exactly the acked batches
// — a shed batch that half-applied breaks the equality. -metrics-dump
// writes the final metrics snapshot as JSON.
//
// The offline run needs no server: it runs the protocol's batch engine
// from internal/sim — distributionally identical to the streaming
// clients and server, fast by default, the per-user engine with -exact,
// the least-squares consistency post-processing with -consistency
// (framework protocols only) — and prints error metrics against the
// workload's truth:
//
//	rtf-sim -n 50000 -d 1024 -k 8 -eps 1.0
//	rtf-sim -protocol erlingsson -workload bursty -series
//	rtf-sim -protocol futurerand -consistency -n 100000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rtf/internal/rng"
	"rtf/internal/sim"
	"rtf/internal/stats"
	"rtf/ldp"
	"rtf/workload"
)

// options are the parsed value flags; the selector flags exist only as
// names (see resolve).
type options struct {
	n, d, k                int
	eps                    float64
	proto, workload        string
	seed                   int64
	exact, consist, series bool
	wlOut, wlIn            string
	drive                  string
	conns, batch           int
	m, buckets             int
	zipf                   float64
	serveBin, gatewayBin   string
	qps                    float64
	duration, p99          time.Duration
	soakBackends, queue    int
	dump                   string
}

// flagSet declares the command line over o.
func flagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("rtf-sim", flag.ContinueOnError)
	fs.IntVar(&o.n, "n", 10000, "number of users")
	fs.IntVar(&o.d, "d", 256, "time periods (power of two)")
	fs.IntVar(&o.k, "k", 4, "max changes per user")
	fs.Float64Var(&o.eps, "eps", 1.0, "privacy budget (0 < eps <= 1)")
	fs.StringVar(&o.proto, "protocol", "futurerand", "protocol: futurerand|independent|bun|erlingsson|naive-split|central-binary")
	fs.StringVar(&o.workload, "workload", "uniform", "workload: uniform|max-changes|bursty|zipf|step|adversarial|periodic|static")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.exact, "exact", false, "offline run: use the exact per-user engine")
	fs.BoolVar(&o.consist, "consistency", false, "offline run: apply consistency post-processing")
	fs.BoolVar(&o.series, "series", false, "offline run: print the t,truth,estimate series as CSV")
	fs.StringVar(&o.wlOut, "write-workload", "", "offline run: write the generated workload as CSV to this file")
	fs.StringVar(&o.wlIn, "read-workload", "", "read the Boolean workload from this CSV file instead of generating")
	fs.StringVar(&o.drive, "drive", "", "scenario: load-test a running rtf-serve at this address (freshly started: the bit-for-bit check compares its cumulative state against this run alone)")
	fs.IntVar(&o.conns, "conns", 4, "parallel connections of a server scenario")
	fs.IntVar(&o.batch, "batch", 256, "messages per batch frame of a server scenario")
	fs.Bool("recover", false, "scenario: crash choreography over one durable rtf-serve (with -domain [-hashed]: in that mode)")
	fs.Bool("cluster", false, "scenario: crash choreography over rtf-gateway and three rtf-serve backends, one durable")
	fs.Bool("domain", false, "scenario: crash choreography in exact domain mode over a gateway and three backends; with -recover, -hashed or -membership: their domain variants")
	fs.Bool("membership", false, "scenario: membership choreography over rtf-gateway -members and rtf-serve -membership backends (K=2, 16 virtual shards): join mid-ingest, drain by snapshot handoff, kill -9 a replica")
	fs.IntVar(&o.m, "m", 8, "domain size of a -domain scenario")
	fs.Float64Var(&o.zipf, "zipf-s", 1.2, "Zipf exponent over items of a -domain scenario")
	fs.Bool("hashed", false, "with -domain: hashed domain mode (-encoding loloha) — a catalogue past the exact 4096 cap, sampled verification, a bucket-derived RSS ceiling")
	fs.IntVar(&o.buckets, "buckets", 256, "bucket count g of a -hashed scenario")
	fs.StringVar(&o.serveBin, "serve-bin", "", "rtf-serve binary for spawning scenarios (default: next to this binary, then $PATH)")
	fs.StringVar(&o.gatewayBin, "gateway-bin", "", "rtf-gateway binary for spawning scenarios (default: next to this binary, then $PATH)")
	fs.Bool("soak", false, "scenario: soak choreography — paced acked-batch ingest at -qps for -duration with an early overload burst, /metrics scraped, the operational envelope asserted, answers bit-for-bit a reference fed only the acked batches")
	fs.Float64Var(&o.qps, "qps", 5000, "-soak: target ingest messages/sec across all connections")
	fs.DurationVar(&o.duration, "duration", 15*time.Second, "-soak: paced-load duration")
	fs.IntVar(&o.soakBackends, "soak-backends", 0, "-soak topology: 0 = one rtf-serve, N >= 2 = rtf-gateway over N backends")
	fs.IntVar(&o.queue, "queue", 2, "-soak: admission queue capacity on the target (0 = unbounded, disables shed assertions)")
	fs.DurationVar(&o.p99, "p99-ceiling", 250*time.Millisecond, "-soak: max acceptable p99 ingest apply latency")
	fs.StringVar(&o.dump, "metrics-dump", "", "-soak: write the final metrics snapshot JSON to this file")
	return fs
}

// configure parses the command line and resolves it to a scenario.
func configure(args []string) (*options, *scenario, error) {
	o := new(options)
	fs := flagSet(o)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if fs.NArg() > 0 {
		return nil, nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); !ok || !b.IsBoolFlag() || f.Value.String() == "true" {
			set = append(set, f.Name)
		}
	})
	sc, err := resolve(set)
	return o, sc, err
}

func main() {
	o, sc, err := configure(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err == nil {
		if sc.run == nil {
			err = offline(o, os.Stdout)
		} else {
			err = serve(o, sc)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtf-sim:", err)
		os.Exit(1)
	}
}

// serve runs a server-driving scenario: build the mode, deploy the
// topology in it, hand both to the choreography.
func serve(o *options, sc *scenario) error {
	topo, err := sc.topology(o)
	if err != nil {
		return err
	}
	need := sc.needs
	need.Clustered = need.Clustered || topo.gateway != ""
	mech, _ := ldp.Lookup(ldp.Protocol(o.proto)) // an unregistered protocol has no capabilities
	if missing := lacking(mech.Caps, need); len(missing) > 0 {
		return fmt.Errorf("%s needs a mechanism with the %v capabilities, -protocol %q lacks them", dashed(sc.selects), missing, o.proto)
	}
	if o.conns < 1 || o.batch < 1 {
		return fmt.Errorf("-conns %d and -batch %d must be >= 1", o.conns, o.batch)
	}
	m, users, err := sc.mode(o)
	if err != nil {
		return err
	}
	dep, err := deploy(topo, m.serveFlags(), o.serveBin, o.gatewayBin)
	if err != nil {
		return err
	}
	defer dep.close()
	return sc.run(sc.name, dep, &driver{mode: m, n: users, conns: o.conns, batch: o.batch}, o)
}

// offline is the run without servers: one protocol execution through
// its batch engine, error metrics against the workload's truth.
func offline(o *options, out io.Writer) error {
	sys, err := offlineSystem(o)
	if err != nil {
		return err
	}
	w, err := loadWorkload(o)
	if err != nil {
		return err
	}
	if o.wlOut != "" {
		f, err := os.Create(o.wlOut)
		if err != nil {
			return err
		}
		if err := w.WriteCSV(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	start := time.Now()
	est, err := sys.Run(w, rng.NewFromSeed(o.seed))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	truth := w.Truth()
	maxErr := stats.MaxAbsError(est, truth)

	fmt.Fprintf(out, "protocol=%s workload=%s n=%d d=%d k=%d eps=%v seed=%d\n",
		o.proto, o.workload, w.N, w.D, w.K, o.eps, o.seed)
	fmt.Fprintf(out, "max error  %.1f\n", maxErr)
	fmt.Fprintf(out, "MAE        %.1f\n", stats.MAE(est, truth))
	fmt.Fprintf(out, "RMSE       %.1f\n", stats.RMSE(est, truth))
	if m, _ := ldp.Lookup(ldp.Protocol(o.proto)); m.Caps.ErrorBound {
		if b, err := m.ErrorBound(w.N, w.D, w.K, o.eps, 0.05); err == nil && b > 0 {
			fmt.Fprintf(out, "Hoeffding bound (beta=0.05)  %.1f  (slack %.1fx)\n", b, b/maxErr)
		}
	}
	fmt.Fprintf(out, "elapsed    %v\n", elapsed.Round(time.Millisecond))

	if o.series {
		fmt.Fprintln(out, "t,truth,estimate")
		for t := 1; t <= w.D; t++ {
			fmt.Fprintf(out, "%d,%d,%.2f\n", t, truth[t-1], est[t-1])
		}
	}
	return nil
}

// offlineSystem picks -protocol's batch engine, refusing a flag the
// engine would silently ignore. The framework protocols differ only in
// the client randomizer, whose kind is named after its protocol.
func offlineSystem(o *options) (sim.System, error) {
	for _, kind := range []sim.RandomizerKind{sim.FutureRand, sim.Independent, sim.Bun} {
		if kind.String() == o.proto {
			fw := sim.Framework{Kind: kind, Eps: o.eps, Fast: !o.exact}
			if o.consist {
				return sim.Consistent{Framework: fw}, nil
			}
			return fw, nil
		}
	}
	var sys sim.System
	switch ldp.Protocol(o.proto) {
	case ldp.Erlingsson:
		sys = sim.Erlingsson{Eps: o.eps, Fast: !o.exact}
	case ldp.NaiveSplit:
		sys = sim.NaiveSplit{Eps: o.eps, Fast: !o.exact}
	case ldp.CentralBinary:
		if o.exact {
			return nil, errors.New("-exact does not apply to central-binary: the trusted curator has one engine")
		}
		sys = sim.Central{Eps: o.eps}
	default:
		return nil, fmt.Errorf("unknown protocol %q", o.proto)
	}
	if o.consist {
		return nil, errors.New("consistency post-processing applies to framework protocols only")
	}
	return sys, nil
}

// loadWorkload reads or generates the Boolean workload.
func loadWorkload(o *options) (*workload.Workload, error) {
	if o.wlIn != "" {
		f, err := os.Open(o.wlIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ReadCSV(f)
	}
	n, d, k := o.n, o.d, o.k
	var s workload.Spec
	switch o.workload {
	case "uniform":
		s = workload.Uniform{N: n, D: d, K: k}
	case "max-changes":
		s = workload.MaxChanges{N: n, D: d, K: k}
	case "bursty":
		s = workload.Bursty{N: n, D: d, K: k, Start: d / 4, End: d / 2, InBurst: 0.8}
	case "zipf":
		s = workload.ZipfActivity{N: n, D: d, K: k, S: 1.5}
	case "step":
		s = workload.Step{N: n, D: d, T0: d / 2, Jitter: d / 16, Fraction: 0.5}
	case "adversarial":
		s = workload.Adversarial{N: n, D: d, K: k}
	case "periodic":
		s = workload.Periodic{N: n, D: d, K: k, Period: max(1, d/8)}
	case "static":
		s = workload.Static{N: n, D: d}
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return workload.Generate(s, o.seed)
}
