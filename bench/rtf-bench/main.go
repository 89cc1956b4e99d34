// Command rtf-bench is the repository's end-to-end benchmark. It spawns
// the real rtf-serve / rtf-gateway binaries, drives four seeded
// fixed-work workloads at them over loopback TCP from one generator
// connection, verifies every served answer bit for bit against the
// in-process serial reference, and prints every metric by name and
// unit. See ../README.md for the definitions and BENCHMARK.json at the
// repository root for the contract.
//
//	rtf-bench                                       # every workload: end-to-end run, then traced run
//	rtf-bench -repeat 2 -check                      # two interleaved repeats must agree within the bounds
//	rtf-bench --workload domain-rw --seed 7 --seconds 20 --trace 0
//
// One run is five independent sets (own processes, own population);
// the last line of its standard output is one JSON object {"correct",
// "attempted", "failed", "metrics"}; the exit code is non-zero when any
// operation failed or any answer differed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rtf/internal/obs"
	"rtf/ldp"
)

// metricDef declares one reported metric. BENCHMARK.json repeats this
// table; a unit test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: tolerated relative worsening, runs of different seeds
	exact  bool    // a pure function of the seed: -check holds repeats to sameSeedBound
}

// sameSeedBound is what -check allows the exact metrics to differ by
// between repeats, which share a seed: the issue's 0.5 %.
const sameSeedBound = 0.005

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "reports_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "query_p50_ms", unit: "ms", bound: 0.25},
	{name: "query_p95_ms", unit: "ms", bound: 0.25},
	{name: "wire_bytes_per_report", unit: "B", bound: 0.02, exact: true},
	{name: "peak_rss_mb", unit: "MB", bound: 0.15},
	{name: "rms_err_frac", unit: "frac", bound: 0.10, exact: true},
}

// perLayer metrics are reported by traced runs. A metric whose layer
// is not on the workload's path reads 0.
var perLayer = []metricDef{
	{name: "core.new_client_ns", unit: "ns"},
	{name: "core.observe_ns", unit: "ns"},
	{name: "core.reports_per_user", unit: "count"},
	{name: "hh.domain_observe_ns", unit: "ns"},
	{name: "transport.encode_ns_per_report", unit: "ns"},
	{name: "transport.decode_ns_per_report", unit: "ns"},
	{name: "transport.validate_ns_per_report", unit: "ns"},
	{name: "transport.answer_encode_us", unit: "us"},
	{name: "transport.batch_rtt_us", unit: "us"},
	{name: "protocol.apply_ns_per_report", unit: "ns"},
	{name: "protocol.domain_apply_ns_per_report", unit: "ns"},
	{name: "protocol.estimate_series_us", unit: "us"},
	{name: "protocol.fold_us", unit: "us"},
	{name: "persist.journal_ns_per_report", unit: "ns"},
	{name: "persist.wal_bytes_per_report", unit: "B"},
	{name: "persist.snapshot_ms", unit: "ms"},
	{name: "persist.snapshots_total", unit: "count", higher: true},
	{name: "persist.recover_ms", unit: "ms"},
	{name: "hh.topk_cold_us", unit: "us"},
	{name: "hh.topk_warm_us", unit: "us"},
	{name: "hh.memo_hit_ratio", unit: "ratio", higher: true},
	{name: "hh.hashed_topk_cold_us", unit: "us"},
	{name: "hh.hashed_topk_warm_us", unit: "us"},
	{name: "cluster.forward_ns_per_report", unit: "ns"},
	{name: "cluster.gather_us", unit: "us"},
	{name: "cluster.cache_hit_ratio", unit: "ratio", higher: true},
	{name: "cluster.gathers_per_query", unit: "ratio"},
	{name: "cluster.scatter_p50_us", unit: "us"},
	{name: "obs.ingest_latency_p50_us", unit: "us"},
	{name: "span.randomize_share", unit: "ratio"},
	{name: "span.encode_share", unit: "ratio"},
	{name: "span.send_share", unit: "ratio"},
	{name: "span.await_acks_share", unit: "ratio"},
	{name: "span.read_burst_share", unit: "ratio"},
	{name: "trace.overhead_frac", unit: "frac"},
	{name: "diag.rounds", unit: "count", higher: true},
	{name: "diag.host_steal_frac", unit: "frac"},
	{name: "diag.host_spin_us", unit: "us"},
	{name: "diag.reports_per_s_mean", unit: "1/s", higher: true},
	{name: "diag.query_p99_ms_pooled", unit: "ms"},
	{name: "diag.linf_err_frac", unit: "frac"},
}

// result is one finished run.
type result struct {
	workload  string
	trace     bool
	attempted int
	failed    int
	metrics   map[string]float64
}

func (res *result) defs() []metricDef {
	if res.trace {
		return perLayer
	}
	return endToEnd
}

// jsonLine renders the contract's result object.
func (res *result) jsonLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]mv{}}
	for _, d := range res.defs() {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = mv{v, d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func (res *result) print() {
	kind := "end-to-end"
	if res.trace {
		kind = "traced"
	}
	fmt.Printf("== %s (%s run): ops_attempted=%d ops_failed=%d\n", res.workload, kind, res.attempted, res.failed)
	for _, d := range res.defs() {
		fmt.Printf("%-16s %-36s %16.6g %s\n", res.workload, d.name, res.metrics[d.name], d.unit)
	}
}

// execute performs the given runs of one workload end to end, in
// lockstep: set i of every run, then set i+1 of every run. Repeats of
// the same run therefore see the same host conditions, slow episodes
// included, and any difference between them is the estimator's own.
func execute(cfgs []runConfig) ([]*result, error) {
	// A run that outlives the contract's limit is abandoned, its
	// children killed and waited for first.
	watchdog := time.AfterFunc(time.Duration(len(cfgs))*170*time.Second, func() {
		fmt.Fprintf(os.Stderr, "rtf-bench: %s: run exceeded 170s; aborting\n", cfgs[0].spec.name)
		killSpawned()
		os.Exit(2)
	})
	defer watchdog.Stop()
	runners := make([]*runner, len(cfgs))
	for i, cfg := range cfgs {
		runners[i] = newRunner(cfg)
		defer runners[i].close()
	}
	for set := 0; set < cfgs[0].sets; set++ {
		for _, r := range runners {
			if err := r.runSet(set); err != nil {
				return nil, err
			}
		}
	}
	results := make([]*result, len(runners))
	for i, r := range runners {
		var err error
		if results[i], err = r.finish(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

func newRunner(cfg runConfig) *runner {
	return &runner{cfg: cfg, s: cfg.spec, tr: newTracer(), extra: make(map[string]float64)}
}

// close is the error-path teardown; after a finished set it has
// nothing left to do.
func (r *runner) close() {
	if r.topo != nil {
		r.topo.kill()
		r.topo = nil
	}
}

// runSet performs one set: set-up (one setup_s sample), the timed
// rounds, the closing checks, a clean stop of every process it spawned,
// and the set's estimates. Traced runs take the socket-level rungs and
// the /metrics scrape from the last set's topology.
func (r *runner) runSet(set int) error {
	s := r.s
	r.seed = setSeed(r.cfg.seed, set)
	r.lat = r.lat[:0]
	last := r.cfg.trace && set == r.cfg.sets-1

	r.est.spin = append(r.est.spin, hostSpinMicros())
	d, err := r.setUp()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.est.setup = append(r.est.setup, d.Seconds())

	steal0, cpu0, err := cpuTimes()
	if err != nil {
		return err
	}
	var snaps *snapshotWatcher
	if r.cfg.trace && s.durable {
		snaps = watchSnapshots(r.topo.dataDir)
	}
	windowStart := time.Now()
	err = r.runRounds()
	r.window += time.Since(windowStart)
	if snaps != nil {
		r.extra["persist.snapshots_total"] += float64(snaps.stop())
	}
	if err != nil {
		return err
	}
	steal1, cpu1, err := cpuTimes()
	if err != nil {
		return err
	}
	r.steal, r.cpu = r.steal+steal1-steal0, r.cpu+cpu1-cpu0

	if last {
		if err := r.liveRungs(r.extra); err != nil {
			return err
		}
	}
	r.finalCheck(r.sess)
	if last {
		if err := r.scrape(r.extra); err != nil {
			return err
		}
	}
	rss, err := r.topo.peakRSS()
	if err != nil {
		return err
	}
	r.attempted++
	if err := r.stopServing(); err != nil {
		r.fail("%v", err)
	}
	if s.durable {
		if err := r.recoveryCheck(); err != nil {
			return err
		}
		rss2, err := r.topo.peakRSS()
		if err != nil {
			return err
		}
		rss = max(rss, rss2)
		r.attempted++
		if err := r.stopServing(); err != nil {
			r.fail("%v", err)
		}
		if last {
			if r.extra["persist.recover_ms"], err = recoverRung(s, r.topo.dataDir); err != nil {
				return err
			}
		}
	}
	r.topo.removeData()
	r.topo = nil

	// Latency groups never straddle two sets.
	p50s, p95s := groupQuantiles(r.lat)
	r.p50s, r.p95s = append(r.p50s, p50s...), append(r.p95s, p95s...)
	r.allLat = append(r.allLat, r.lat...)
	r.est.rss = append(r.est.rss, float64(rss)/(1<<20))
	return nil
}

// finish turns the sets' estimates into the run's result.
func (r *runner) finish() (*result, error) {
	s, cfg := r.s, r.cfg
	fmt.Fprintf(os.Stderr, "rtf-bench: %s: %d sets of %d users, %d rounds in %.1fs (write bursts %.1fs), %d timed queries; host spin %.1f us\n",
		s.name, cfg.sets, r.pop.sz.users, r.rounds, r.window.Seconds(), r.burstTime.Seconds(), len(r.allLat), median(r.est.spin))
	m := r.extra
	res := &result{workload: s.name, trace: cfg.trace, attempted: r.attempted, failed: r.failed, metrics: m}
	if !cfg.trace {
		m["setup_s"] = median(r.est.setup)
		m["reports_per_s"] = fastTail(r.rates[0], true)
		m["query_p50_ms"] = fastTail(r.p50s, false)
		m["query_p95_ms"] = fastTail(r.p95s, false)
		m["wire_bytes_per_report"] = float64(r.ingestBytes) / float64(r.reports)
		m["peak_rss_mb"] = median(r.est.rss)
		m["rms_err_frac"] = median(r.est.rms)
		return res, nil
	}

	if err := runLadder(s, cfg.seconds, setSeed(cfg.seed, 0), cfg.outDir, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	shares := spanShares(r.tr.spans)
	m["span.randomize_share"] = shares[spanRandomize]
	m["span.encode_share"] = shares[spanEncode]
	m["span.send_share"] = shares[spanSend]
	m["span.await_acks_share"] = shares[spanAwaitAcks]
	m["span.read_burst_share"] = shares[spanReadBurst]
	m["trace.overhead_frac"] = 1 - fastTail(r.rates[1], true)/fastTail(r.rates[0], true)
	m["diag.rounds"] = float64(r.rounds)
	if r.cpu > 0 {
		m["diag.host_steal_frac"] = float64(r.steal) / float64(r.cpu)
	}
	m["diag.host_spin_us"] = median(r.est.spin)
	m["diag.reports_per_s_mean"] = float64(r.reports) / r.burstTime.Seconds()
	if p99 := pooledQuantile(r.allLat, 0.99); !math.IsNaN(p99) {
		m["diag.query_p99_ms_pooled"] = p99
	}
	m["diag.linf_err_frac"] = median(r.est.linf)
	path := filepath.Join(cfg.outDir, "trace-"+s.name+".json")
	if err := writeTrace(path, s.name, cfg.seed, r.tr.spans); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

// stopServing closes the generator's connection and SIGTERMs every
// process, requiring exit 0. Data directories stay for a restart.
func (r *runner) stopServing() error {
	if r.sess != nil {
		_ = r.sess.conn.Close() // the server sees EOF either way
		r.sess = nil
	}
	return r.topo.stop(r.cfg.grace)
}

// scrape reads the target's /metrics endpoint for the counters only
// the serving processes know.
func (r *runner) scrape(m map[string]float64) error {
	snap, err := obs.Fetch("http://" + r.topo.target.metricsAddr + "/metrics")
	if err != nil {
		return fmt.Errorf("scraping target metrics: %w", err)
	}
	m["obs.ingest_latency_p50_us"] = snap.Histograms["ingest_latency_seconds"].Quantile(0.5) * 1e6
	hitRatio := 0.0
	if e := snap.Counters["query_cache_eligible_total"]; e > 0 {
		hitRatio = float64(snap.Counters["query_cache_hits_total"]) / float64(e)
	}
	if !r.s.gateway {
		m["hh.memo_hit_ratio"] = hitRatio
		return nil
	}
	m["cluster.cache_hit_ratio"] = hitRatio
	scatter := snap.Histograms[obs.Label("scatter_latency_seconds", "backend", "0")]
	m["cluster.scatter_p50_us"] = scatter.Quantile(0.5) * 1e6
	var queries int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "queries_total") {
			queries += v
		}
	}
	if queries > 0 {
		m["cluster.gathers_per_query"] = float64(scatter.Count) / float64(queries)
	}
	return nil
}

// check compares the end-to-end metrics of the repeats of one workload
// and returns one complaint per metric whose spread exceeds its bound.
func check(repeats []*result) []string {
	var bad []string
	for _, d := range endToEnd {
		bound := d.bound
		if d.exact {
			bound = sameSeedBound
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, res := range repeats {
			lo, hi = math.Min(lo, res.metrics[d.name]), math.Max(hi, res.metrics[d.name])
		}
		if (hi-lo)/lo > bound {
			bad = append(bad, fmt.Sprintf("%s/%s: repeats range %.6g..%.6g, %.1f%% apart, bound %.1f%%",
				repeats[0].workload, d.name, lo, hi, 100*(hi-lo)/lo, 100*bound))
		}
	}
	return bad
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		spinForever()
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rtf-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Int64("seed", 1, "workload seed: the serving processes receive only inputs generated from it")
		seconds      = flag.Float64("seconds", 20, "time budget the fixed work is sized for on a quiet 2-vCPU host")
		trace        = flag.Int("trace", -1, "0 = end-to-end run (tracing off), 1 = traced run (per-layer metrics), -1 = both in turn")
		repeat       = flag.Int("repeat", 1, "run every workload this many times, the repeats interleaved set by set")
		doCheck      = flag.Bool("check", false, "with -repeat: fail when an end-to-end metric differs between repeats by more than its bound")
		grace        = flag.Duration("grace", 10*time.Second, "how long a SIGTERMed process may take to exit 0 before it is killed and the run fails")
		binDir       = flag.String("bin", "", "directory holding rtf-serve and rtf-gateway (default: next to this binary)")
		outDir       = flag.String("out", "", "directory for traces and per-run data (default: the parent of -bin)")
	)
	flag.Parse()
	if *binDir == "" {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		*binDir = filepath.Dir(exe)
	}
	if *outDir == "" {
		*outDir = filepath.Dir(*binDir)
	}
	if _, ok := ldp.Lookup(mechanism); !ok {
		return fmt.Errorf("mechanism %q is not registered", mechanism)
	}
	if *seconds <= 0 || *repeat < 1 {
		return errors.New("-seconds and -repeat must be positive")
	}
	workloads := specs
	if *workloadName != "" {
		s := specByName(*workloadName)
		if s == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		workloads = []*spec{s}
	}
	traces := []bool{false, true}
	if *trace >= 0 {
		traces = []bool{*trace == 1}
	}

	stopSpinners, err := startSpinners()
	if err != nil {
		return err
	}
	defer stopSpinners()

	failedOps, complaints := 0, 0
	for _, s := range workloads {
		for _, tr := range traces {
			cfgs := make([]runConfig, *repeat)
			for i := range cfgs {
				cfgs[i] = runConfig{
					spec: s, seed: *seed, seconds: *seconds, trace: tr,
					binDir: *binDir, outDir: *outDir, grace: *grace, sets: setsPerRun,
				}
			}
			results, err := execute(cfgs)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			for _, res := range results {
				line, err := res.jsonLine()
				if err != nil {
					return fmt.Errorf("%s: %w", s.name, err)
				}
				res.print()
				fmt.Println(line)
				failedOps += res.failed
			}
			if *doCheck && !tr {
				for _, complaint := range check(results) {
					fmt.Fprintln(os.Stderr, "rtf-bench: check:", complaint)
					complaints++
				}
			}
		}
	}
	if failedOps > 0 || complaints > 0 {
		return fmt.Errorf("%d operations failed, %d metrics differ between repeats by more than their bound", failedOps, complaints)
	}
	if *doCheck {
		fmt.Fprintf(os.Stderr, "rtf-bench: check: %d repeats agree within every bound\n", *repeat)
	}
	return nil
}
