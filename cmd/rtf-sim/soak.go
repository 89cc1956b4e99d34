package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"rtf/internal/obs"
	"rtf/internal/transport"
)

// soakCounters is the harness's own view of the run, to cross-check
// against the server's counters at the end, plus the shared user-id
// allocator.
type soakCounters struct {
	sentBatches    atomic.Int64
	appliedBatches atomic.Int64
	shedBatches    atomic.Int64
	appliedMsgs    atomic.Int64
	nextUser       atomic.Int64
}

// soak is the operational-envelope choreography: -conns closed-loop
// workers drive paced acked-batch ingest at -qps for -duration against
// the topology's front while /metrics is scraped, and at the end it
// asserts
//
//   - the applied message rate sustained the target QPS
//   - p99 ingest (apply) latency stayed under -p99-ceiling
//   - memory stayed steady: final RSS within 10% of the early mark
//   - the admission queue depth never exceeded its capacity
//   - an early burst (before the RSS mark, so its memory high-water is
//     part of the baseline) overloaded the queue until at least one batch
//     was shed — whole, never half-applied
//   - the server's counter ledger equals the harness's own
//
// The atomicity proof is exact, not statistical: every batch the server
// acknowledged is folded into the reference, every shed batch is not, and
// after the run every query shape must answer bit-for-bit like the
// reference. A half-applied batch — some messages applied and the batch
// reported shed, or the reverse — breaks the equality.
func soak(name string, dep *deployment, st *driver, o *options) error {
	target, addr := dep.front(), dep.addr
	if target.metrics == "" {
		return fmt.Errorf("soak target reported no metrics address")
	}
	metricsURL := "http://" + target.metrics + "/metrics"
	fmt.Printf("%s backends=%d gateway=%q addr=%s metrics=%s qps=%.0f duration=%v queue=%d conns=%d batch=%d\n",
		name, len(dep.backends), dep.topo.gateway, addr, target.metrics, o.qps, o.duration, o.queue, st.conns, st.batch)

	// The RSS mark is taken at markAt, and the burst — workers drop their
	// pacing until the queue sheds a batch, proving overload rejection —
	// runs *before* it: the burst's pipelined load is the run's memory
	// high-water, so it must be inside the baseline the flat-memory
	// assertion compares the final RSS against.
	markAt := min(10*time.Second, o.duration/3)
	var (
		ctr      soakCounters
		start    = time.Now()
		deadline = start.Add(o.duration)
		burstAt  = start.Add(markAt / 2)
		workers  = make(chan error, st.conns)
	)
	for c := 0; c < st.conns; c++ {
		go func() {
			workers <- st.soakWorker(addr, deadline, burstAt, o.qps/float64(st.conns), o.queue, &ctr)
		}()
	}

	// The scraper: sample /metrics twice a second, record the early RSS
	// mark and the worst queue depth seen. It owns these variables until
	// scrapeDone closes.
	var (
		scrapeStop      = make(chan struct{})
		scrapeDone      = make(chan struct{})
		mark            float64
		depthMax        float64
		violations      int
		scrapes, misses int
	)
	go func() {
		defer close(scrapeDone)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-scrapeStop:
				return
			case <-tick.C:
			}
			// The mark scrape (and the final one, below) pass ?gc=1 so the
			// RSS comparison sees the live set, not the Go scavenger's
			// return-to-OS lag; routine depth samples stay cheap.
			url, takeMark := metricsURL, mark == 0 && time.Since(start) >= markAt
			if takeMark {
				url += "?gc=1"
			}
			s, err := obs.Fetch(url)
			if scrapes++; err != nil {
				misses++
				continue
			}
			if takeMark {
				mark = s.Gauges["process_rss_bytes"]
			}
			depth := s.Gauges["ingest_queue_depth"]
			depthMax = max(depthMax, depth)
			if o.queue > 0 && depth > s.Gauges["ingest_queue_capacity"] {
				violations++
			}
		}
	}()

	var workErr error
	for c := 0; c < st.conns; c++ {
		if err := <-workers; err != nil && workErr == nil {
			workErr = err
		}
	}
	close(scrapeStop)
	<-scrapeDone
	if workErr != nil {
		return fmt.Errorf("soak worker: %w", workErr)
	}
	elapsed := time.Since(start)

	// Authoritative final scrape: the workers have fenced, so every
	// counter is quiescent.
	final, err := obs.Fetch(metricsURL + "?gc=1")
	if err != nil {
		return fmt.Errorf("final metrics scrape: %w", err)
	}
	if o.dump != "" {
		b, err := json.MarshalIndent(final, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.dump, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	checked, err := st.verify(addr)
	if err != nil {
		return fmt.Errorf("post-soak verification (half-applied batch?): %w", err)
	}

	applied, shed, sent, msgs := ctr.appliedBatches.Load(), ctr.shedBatches.Load(), ctr.sentBatches.Load(), ctr.appliedMsgs.Load()
	appliedRate := float64(msgs) / elapsed.Seconds()
	lat := final.Histograms["ingest_latency_seconds"]
	p99 := time.Duration(lat.Quantile(0.99) * float64(time.Second))
	finalRSS := final.Gauges["process_rss_bytes"]
	fmt.Printf("%s sent=%d applied=%d shed=%d batches (%d msgs applied, %.0f msgs/s)\n", name, sent, applied, shed, msgs, appliedRate)
	fmt.Printf("%s p99=%v queue max=%.0f/%d rss mark=%.1fMB final=%.1fMB scrapes=%d (missed %d)\n",
		name, p99, depthMax, o.queue, mark/1e6, finalRSS/1e6, scrapes, misses)

	var fails []string
	bad := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	if appliedRate < 0.9*o.qps {
		bad("applied rate %.0f msgs/s under 90%% of target %.0f", appliedRate, o.qps)
	}
	if p99 > o.p99 {
		bad("ingest p99 %v over ceiling %v", p99, o.p99)
	}
	if lat.Count == 0 {
		bad("ingest_latency_seconds has no observations")
	}
	if mark > 0 && finalRSS > 1.1*mark {
		bad("final RSS %.1fMB grew past 110%% of the %v mark %.1fMB", finalRSS/1e6, markAt, mark/1e6)
	}
	if mark == 0 {
		bad("no RSS mark was sampled (scrapes failing?)")
	}
	if violations > 0 {
		bad("queue depth exceeded capacity in %d scrapes", violations)
	}
	if o.queue > 0 {
		if shed == 0 {
			bad("burst produced no shed batches (queue %d never overloaded)", o.queue)
		}
		if got := final.Gauges["ingest_queue_capacity"]; got != float64(o.queue) {
			bad("ingest_queue_capacity gauge = %v, want %d", got, o.queue)
		}
	}
	if dep.topo.durable != nil {
		// A durable target's WAL gauges must be live: every applied batch
		// appended records.
		if got := final.Gauges["wal_last_seq"]; got < float64(applied) {
			bad("wal_last_seq = %v after %d applied batches", got, applied)
		}
		if _, ok := final.Gauges["snapshot_age_seconds"]; !ok {
			bad("durable target exposes no snapshot_age_seconds gauge")
		}
	}
	// The server's ledger must match ours exactly: batches it counted
	// applied/shed are the batches we saw acked/shed.
	for counter, want := range map[string]int64{
		"ingest_acked_batches_total": sent,
		"ingest_shed_batches_total":  shed,
		"ingest_batches_total":       applied,
		"ingest_messages_total":      msgs,
	} {
		if got := final.Counters[counter]; got != want {
			bad("server counted %s = %d, harness saw %d", counter, got, want)
		}
	}
	// Read-path cache counters must be coherent at a quiescent scrape:
	// every cache-eligible query counted exactly one hit or miss, and
	// coalesced queries are a subset of all answered queries. A Point,
	// Series or Window read is cache-eligible on every front — a single
	// server answers it through its prefix-series memo, a gateway through
	// its answer cache — and every worker's fence is a Point, so a soak
	// that counted none eligible has lost its read cache.
	hits, missed, eligible := final.Counters["query_cache_hits_total"], final.Counters["query_cache_misses_total"], final.Counters["query_cache_eligible_total"]
	if hits+missed != eligible {
		bad("cache counters incoherent: hits %d + misses %d != eligible %d", hits, missed, eligible)
	}
	// An entry in the gateway's answer cache is a gather somebody ran.
	var queries, memoReads, fills, gathers int64
	for counter, v := range final.Counters {
		switch {
		case strings.HasPrefix(counter, "queries_total"):
			queries += v
			for _, kind := range []string{`kind="point"`, `kind="series"`, `kind="window"`} {
				if strings.Contains(counter, kind) {
					memoReads += v
				}
			}
		case strings.HasPrefix(counter, "answer_cache_fills_total"):
			fills += v
		case strings.HasPrefix(counter, "gathers_total"):
			gathers += v
		}
	}
	if fills > gathers {
		bad("answer_cache_fills_total %d exceeds %d gathers", fills, gathers)
	}
	if coalesced := final.Counters["query_coalesced_total"]; coalesced > queries {
		bad("query_coalesced_total %d exceeds %d answered queries", coalesced, queries)
	}
	if memoReads > 0 && eligible == 0 {
		bad("soak answered %d Point/Series/Window queries but counted none cache-eligible", memoReads)
	}
	if err := dep.drain(); err != nil {
		bad("%v", err)
	}
	if len(fails) > 0 {
		return fmt.Errorf("soak failed:\n  %s", strings.Join(fails, "\n  "))
	}
	fmt.Printf("%s estimates bit-for-bit identical to the reference fed the %d acked batches (%d values)\n", name, applied, checked)
	fmt.Println("soak PASS")
	return nil
}

// soakWorker is one loaded connection: assemble batches of fresh
// users' reports, ship them acked, and fold each into the reference
// only if its ack says applied. In the paced phase the worker runs
// closed-loop (one batch in flight, sleeping toward a per-message
// schedule). During the burst window (until the first shed anywhere)
// it pipelines several unacknowledged batches per connection, which
// keeps every server connection goroutine continuously applying and
// deterministically overruns the admission queue — a closed-loop
// worker holds a queue slot only for the tiny apply window of its one
// in-flight batch, and a capacity-2 queue can ride out even four such
// workers indefinitely.
func (st *driver) soakWorker(addr string, deadline, burstAt time.Time, qps float64, queueCap int, ctr *soakCounters) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	enc, dec := transport.NewEncoder(conn), transport.NewDecoder(conn)

	// A batch is its messages and its users' folds; inflight is the FIFO
	// of batches sent but not yet acknowledged: acks come back in send
	// order on the one connection.
	type batch struct {
		ms    []transport.Msg
		folds []func() error
	}
	var (
		cur      batch
		inflight []batch
		next     = time.Now()
	)
	readAck := func() error {
		applied, err := dec.ReadBatchAck()
		if err != nil {
			return fmt.Errorf("reading batch ack: %w", err)
		}
		b := inflight[0]
		inflight = inflight[1:]
		if !applied {
			ctr.shedBatches.Add(1)
			return nil
		}
		ctr.appliedBatches.Add(1)
		ctr.appliedMsgs.Add(int64(len(b.ms)))
		st.mu.Lock()
		defer st.mu.Unlock()
		for _, fold := range b.folds {
			if err := fold(); err != nil {
				return err
			}
		}
		return nil
	}
	for time.Now().Before(deadline) {
		// While bursting the last assembled batch is re-sent back to back,
		// a window of them unacknowledged: the burst must be server-bound,
		// and assembling fresh users costs more client CPU than the server
		// spends applying them. Duplicate users are harmless — the
		// reference is fed every acked copy too, so exactness is
		// unaffected.
		bursting := queueCap > 0 && time.Now().After(burstAt) && ctr.shedBatches.Load() == 0
		window := 1
		if bursting {
			window = 8
		}
		if !bursting || len(cur.ms) == 0 {
			cur = batch{} // never reused: batches in flight hold the old one
			for len(cur.ms) < st.batch {
				ms, fold, err := st.mode.user(int(ctr.nextUser.Add(1) - 1))
				if err != nil {
					return err
				}
				cur.ms, cur.folds = append(cur.ms, ms...), append(cur.folds, fold)
			}
		}
		if !bursting {
			time.Sleep(time.Until(next))
			// A worker that fell behind schedule (the burst window, say)
			// restarts its schedule from now rather than flooding to
			// catch up.
			if now := time.Now(); next.Before(now.Add(-time.Second)) {
				next = now
			}
			next = next.Add(time.Duration(float64(len(cur.ms)) / qps * float64(time.Second)))
		}
		if err := enc.EncodeAckedBatch(cur.ms); err != nil {
			return err
		}
		if err := enc.Flush(); err != nil {
			return err
		}
		ctr.sentBatches.Add(1)
		inflight = append(inflight, cur)
		for len(inflight) >= window {
			if err := readAck(); err != nil {
				return err
			}
		}
	}
	for len(inflight) > 0 {
		if err := readAck(); err != nil {
			return err
		}
	}
	// One read round-trip proves the target (and, through a gateway's
	// session leases, every backend) applied everything this connection's
	// acked batches forwarded.
	if err := st.mode.fence(enc, dec); err != nil {
		return fmt.Errorf("fence query: %w", err)
	}
	return nil
}
