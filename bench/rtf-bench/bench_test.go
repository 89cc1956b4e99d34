package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

func TestFastTailRank(t *testing.T) {
	for _, c := range []struct{ rounds, rank int }{
		{3500, 70}, {501, 11}, {500, 10}, {499, 10}, {100, 10}, {11, 10}, {10, 10}, {5, 5}, {1, 1},
	} {
		if got := fastTailRank(c.rounds); got != c.rank {
			t.Errorf("fastTailRank(%d) = %d, want %d", c.rounds, got, c.rank)
		}
	}
	// At least ten rounds lie beyond the reported one whenever there are
	// more than twenty.
	for r := 20; r < 5000; r++ {
		if beyond := r - fastTailRank(r); beyond < 10 {
			t.Fatalf("R=%d: only %d rounds beyond rank %d", r, beyond, fastTailRank(r))
		}
	}
}

func TestFastTail(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	rand.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	if got := fastTail(append([]float64(nil), vals...), false); got != 20 { // rank ⌈1000/50⌉ from the smallest
		t.Errorf("lower-is-better fast tail = %v, want 20", got)
	}
	if got := fastTail(vals, true); got != 981 { // rank 20 from the largest
		t.Errorf("higher-is-better fast tail = %v, want 981", got)
	}
	if got := fastTail([]float64{3, 1, 2}, false); got != 3 { // fewer rounds than the rank: the worst
		t.Errorf("short fast tail = %v, want 3", got)
	}
	if !math.IsNaN(fastTail(nil, true)) {
		t.Error("empty fast tail must be NaN")
	}
}

// A percentile is reported only with at least ten samples beyond it:
// p95 of a 200-query group is exactly at that limit.
func TestTenSamplesBeyond(t *testing.T) {
	if i := quantileIndex(latencyGroup, 0.95); i != 189 {
		t.Errorf("p95 index of %d = %d, want 189", latencyGroup, i)
	}
	if b := samplesBeyond(latencyGroup, 0.95); b != 10 {
		t.Errorf("samples beyond p95 of %d = %d, want 10", latencyGroup, b)
	}
	if i := quantileIndex(latencyGroup, 0.50); i != 99 {
		t.Errorf("median index = %d, want 99", i)
	}
	lat := make([]float64, 1100)
	for i := range lat {
		lat[i] = float64(i)
	}
	if !math.IsNaN(pooledQuantile(lat[:500], 0.99)) {
		t.Error("p99 of 500 has 5 samples beyond it and must not be reported")
	}
	if got := pooledQuantile(lat, 0.99); got != 1088 {
		t.Errorf("p99 of 0..1099 = %v, want 1088", got)
	}
}

func TestGroupQuantiles(t *testing.T) {
	lat := make([]float64, 2*latencyGroup+50) // the trailing 50 are dropped
	for i := range lat {
		lat[i] = float64(i % latencyGroup)
	}
	p50s, p95s := groupQuantiles(lat)
	if !reflect.DeepEqual(p50s, []float64{99, 99}) || !reflect.DeepEqual(p95s, []float64{189, 189}) {
		t.Errorf("group quantiles = %v / %v", p50s, p95s)
	}
	if p50s, p95s := groupQuantiles(lat[:latencyGroup-1]); !reflect.DeepEqual(p50s, []float64{99}) || !reflect.DeepEqual(p95s, []float64{189}) {
		t.Errorf("a set shorter than one group is one short group, got %v / %v", p50s, p95s)
	}
	if p50s, _ := groupQuantiles(nil); p50s != nil {
		t.Errorf("no latencies, no groups; got %v", p50s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: spanRound, Start: 0, End: 100, Parent: -1},
		{Name: spanWriteBurst, Start: 0, End: 50, Parent: 0},
		{Name: spanSend, Start: 5, End: 15, Parent: 1},
		{Name: spanAwaitAcks, Start: 15, End: 45, Parent: 1},
		{Name: spanOracle, Start: 50, End: 60, Parent: 0},
		{Name: spanReadBurst, Start: 60, End: 100, Parent: 0},
		{Name: spanVerify, Start: 70, End: 80, Parent: 5},
	}
	want := []int64{0, 10, 10, 30, 10, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	// Shares are of the round minus the harness-only spans: 100 − 20.
	shares := spanShares(spans)
	for name, want := range map[string]float64{
		spanSend: 10.0 / 80, spanAwaitAcks: 30.0 / 80, spanReadBurst: 30.0 / 80, spanWriteBurst: 10.0 / 80,
	} {
		if got := shares[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", name, got, want)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	if id := tr.begin(spanRound); id != -1 || len(tr.spans) != 0 {
		t.Fatal("a tracer that is off must record nothing")
	}
	tr.end(-1)
	tr.on, tr.round = true, 7
	a := tr.begin(spanRound)
	b := tr.begin(spanWriteBurst)
	tr.end(b)
	c := tr.begin(spanReadBurst)
	tr.end(c)
	tr.end(a)
	if len(tr.spans) != 3 || tr.spans[b].Parent != a || tr.spans[c].Parent != a || tr.spans[a].Parent != -1 {
		t.Fatalf("unexpected nesting: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Round != 7 || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
}

// Every round of a workload has the same composition: the same query
// kinds in the same order, and (for a replayed corpus) the same number
// of batches, equal in size to within one report.
func TestRoundComposition(t *testing.T) {
	for _, s := range specs {
		rng := rand.New(rand.NewPCG(1, 2))
		kinds := func(block int) []string {
			var out []string
			for _, q := range s.plan(s, rng, block) {
				out = append(out, q.ref.Kind.String())
			}
			return out
		}
		first := kinds(0)
		for block := 1; block < 20; block++ {
			if got := kinds(block); !reflect.DeepEqual(got, first) {
				t.Errorf("%s: round %d asks %v, round 0 asked %v", s.name, block, got, first)
			}
		}
		if s.live {
			sz := s.size(1)
			if sz.rounds != sz.users/s.cohort*s.d/s.block || sz.roundsPerPass != sz.rounds {
				t.Errorf("%s: sizes %+v", s.name, sz)
			}
			continue
		}
		pop, err := buildPopulation(s, 0.2, 3, false)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(pop.frames)%s.batchesPerRound != 0 || pop.sz.rounds != s.passes*pop.sz.roundsPerPass ||
			pop.sz.roundsPerPass*s.batchesPerRound != len(pop.frames) {
			t.Errorf("%s: %d batches do not make whole rounds of %d (%+v)", s.name, len(pop.frames), s.batchesPerRound, pop.sz)
		}
		lo, hi, total := math.MaxInt, 0, 0
		for _, b := range pop.reps {
			lo, hi, total = min(lo, len(b)), max(hi, len(b)), total+len(b)
		}
		if hi-lo > 1 || total != pop.reports {
			t.Errorf("%s: batch sizes range %d..%d, %d of %d reports batched", s.name, lo, hi, total, pop.reports)
		}
	}
}

// BENCHMARK.json repeats the harness's workload and metric tables; the
// driver reads the file, the harness prints from the tables.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, spec has %q/%q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s metric %s: bound mismatch", kind, g.Name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

// -check holds the seed-determined metrics to the same-seed bound and
// the timings to their own.
func TestCheck(t *testing.T) {
	mk := func(rate, wire float64) *result {
		m := map[string]float64{}
		for _, d := range endToEnd {
			m[d.name] = 1
		}
		m["reports_per_s"], m["wire_bytes_per_report"] = rate, wire
		return &result{workload: "w", metrics: m}
	}
	if bad := check([]*result{mk(100, 7), mk(120, 7)}); len(bad) != 0 {
		t.Errorf("a 20%% rate difference is inside the bound: %v", bad)
	}
	if bad := check([]*result{mk(100, 7), mk(130, 7)}); len(bad) != 1 {
		t.Errorf("a 30%% rate difference must be reported once: %v", bad)
	}
	if bad := check([]*result{mk(100, 7), mk(100, 7.07)}); len(bad) != 1 {
		t.Errorf("a 1%% difference in an exact metric must be reported: %v", bad)
	}
}

func TestSampleItems(t *testing.T) {
	freq := make([]int32, 5000)
	freq[4999], freq[17], freq[18] = 9, 9, 8
	items, top := sampleItems(freq, 100, 3)
	if !top[17] || !top[18] || !top[4999] || len(top) != 3 {
		t.Errorf("top = %v", top)
	}
	if len(items) != 100 {
		t.Errorf("%d items sampled, want 100", len(items))
	}
	seen := map[int]bool{}
	for _, x := range items {
		if seen[x] {
			t.Errorf("item %d sampled twice", x)
		}
		seen[x] = true
	}
	if !seen[17] || !seen[18] || !seen[4999] {
		t.Error("the top items must be in the sample")
	}
}

// TestSmoke runs every workload, end to end and traced, at toy size
// against freshly built binaries: spawn, register, rounds, accuracy,
// raw-sums check, clean SIGTERM, and (bool-durable) restart+recovery.
// The watchdog's exit: every tracked child is dead and reaped when
// killSpawned returns, also one a Wait elsewhere is already blocked on.
func TestKillSpawned(t *testing.T) {
	cmds := []*exec.Cmd{exec.Command("sleep", "60"), exec.Command("sleep", "60")}
	for _, c := range cmds {
		if err := c.Start(); err != nil {
			t.Skip("no sleep to spawn:", err)
		}
		trackSpawned(c.Process)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmds[0].Wait() }()
	killSpawned()
	for _, c := range cmds {
		if b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.Process.Pid), "stat")); err == nil {
			t.Errorf("pid %d still there after killSpawned: %s", c.Process.Pid, b)
		}
	}
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Error("the concurrent Wait never returned")
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the serving binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/rtf-serve", "./cmd/rtf-gateway")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the serving binaries: %v\n%s", err, out)
	}
	start := time.Now()
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			out := t.TempDir()
			// Two sets without tracing: what a set leaves behind must not
			// leak into the next.
			sets := 2
			if trace {
				sets = 1
			}
			results, err := execute([]runConfig{{spec: s, seed: 5, seconds: 0.1, trace: trace, binDir: bin, outDir: out, grace: 10 * time.Second, sets: sets}})
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", s.name, trace, err)
			}
			res := results[0]
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s (trace=%v): %d of %d operations failed", s.name, trace, res.failed, res.attempted)
			}
			if _, err := res.jsonLine(); err != nil {
				t.Errorf("%s (trace=%v): %v", s.name, trace, err)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, "trace-"+s.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", s.name, err)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(out, "data-*")); len(left) != 0 {
				t.Errorf("%s: data directories left behind: %v", s.name, left)
			}
		}
	}
	t.Logf("eight toy runs in %v", time.Since(start))
}
