package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/ldp"
)

// runConfig is one benchmark run: one workload, one seed, tracing on
// or off.
type runConfig struct {
	spec    *spec
	seed    int64
	seconds float64
	trace   bool
	binDir  string // rtf-serve and rtf-gateway live here
	outDir  string // traces and per-run data directories go here
	grace   time.Duration
	sets    int // independent sets per run: setsPerRun, fewer only in the smoke test
}

// opTimeout bounds one round's socket operations; hitting it is a
// failed operation and ends the run.
const opTimeout = 60 * time.Second

// topology is the spawned serving processes of one workload. The
// generator talks to target only.
type topology struct {
	procs     []*proc // spawn order: backends first, target last
	target    *proc
	dataDir   string   // durable workloads
	serveArgs []string // the durable server's arguments, for its restart
	serveBin  string
}

func protoArgs(s *spec, hashSeed uint64) []string {
	args := []string{"-mechanism", mechanism, "-d", fmt.Sprint(s.d), "-k", fmt.Sprint(sparsityK), "-eps", fmt.Sprint(epsilon)}
	switch s.mode {
	case modeExact:
		args = append(args, "-m", fmt.Sprint(s.m))
	case modeHashed:
		args = append(args, "-m", fmt.Sprint(s.m), "-encoding", "loloha",
			"-buckets", fmt.Sprint(s.g), "-hash-seed", fmt.Sprint(hashSeed))
	}
	return args
}

// startTopology spawns the workload's processes on kernel-assigned
// ports. On error everything already started is killed.
func startTopology(cfg runConfig, hashSeed uint64) (_ *topology, err error) {
	s := cfg.spec
	t := &topology{serveBin: filepath.Join(cfg.binDir, "rtf-serve")}
	defer func() {
		if err != nil {
			t.kill()
		}
	}()
	common := append(protoArgs(s, hashSeed), "-grace", cfg.grace.String())
	listen := []string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}
	if s.gateway {
		var addrs []string
		for i := 0; i < 2; i++ {
			p, err := startProc(t.serveBin, fmt.Sprintf("backend%d", i), slices.Concat(listen, common))
			if err != nil {
				return nil, err
			}
			t.procs = append(t.procs, p)
			addrs = append(addrs, p.addr)
		}
		args := slices.Concat(listen, []string{"-backends", strings.Join(addrs, ",")}, common)
		p, err := startProc(filepath.Join(cfg.binDir, "rtf-gateway"), "rtf-gateway", args)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, p)
		t.target = p
		return t, nil
	}
	t.serveArgs = slices.Concat(listen, common)
	if s.durable {
		if t.dataDir, err = os.MkdirTemp(cfg.outDir, "data-"); err != nil {
			return nil, err
		}
		t.serveArgs = append(t.serveArgs, "-data-dir", t.dataDir, "-snapshot-every", "1s")
	}
	p, err := startProc(t.serveBin, "rtf-serve", t.serveArgs)
	if err != nil {
		return nil, err
	}
	t.procs = append(t.procs, p)
	t.target = p
	return t, nil
}

// restart starts the durable server again on its data directory.
func (t *topology) restart() error {
	p, err := startProc(t.serveBin, "rtf-serve", t.serveArgs)
	if err != nil {
		return err
	}
	t.procs = append(t.procs, p)
	t.target = p
	return nil
}

// stop SIGTERMs every process, target first, and requires each to
// exit 0.
func (t *topology) stop(grace time.Duration) error {
	var errs []error
	for i := len(t.procs) - 1; i >= 0; i-- {
		errs = append(errs, t.procs[i].stop(grace))
	}
	t.procs, t.target = nil, nil
	return errors.Join(errs...)
}

// kill is the error-path teardown: SIGKILL everything, drop the data.
func (t *topology) kill() {
	for _, p := range t.procs {
		p.kill()
	}
	t.procs, t.target = nil, nil
	t.removeData()
}

func (t *topology) removeData() {
	if t.dataDir != "" {
		_ = os.RemoveAll(t.dataDir) // best effort: the directory is under the gitignored out dir
	}
}

// peakRSS sums VmHWM over the live serving processes.
func (t *topology) peakRSS() (int64, error) {
	var sum int64
	for _, p := range t.procs {
		b, err := p.peakRSSBytes()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}

// session is the generator's one connection.
type session struct {
	conn   net.Conn
	enc    *transport.Encoder
	dec    *transport.Decoder
	domain bool
}

func dial(addr string, domain bool) (*session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &session{conn: conn, enc: transport.NewEncoder(conn), dec: transport.NewDecoder(conn), domain: domain}, nil
}

// ask writes the queries in one flush and reads their answers in
// order, appending them to out. With one query it is the interval the
// caller times socket to socket.
func (s *session) ask(out []answer, qs ...query) ([]answer, error) {
	for _, q := range qs {
		if err := s.enc.Encode(q.wire); err != nil {
			return out, err
		}
	}
	if err := s.enc.Flush(); err != nil {
		return out, err
	}
	return s.read(out, len(qs))
}

// read decodes n answers, appending them to out.
func (s *session) read(out []answer, n int) ([]answer, error) {
	for ; n > 0; n-- {
		if s.domain {
			f, err := s.dec.ReadDomainAnswer()
			if err != nil {
				return out, err
			}
			out = append(out, answer{items: f.Items, values: f.Values})
			continue
		}
		f, err := s.dec.ReadAnswer()
		if err != nil {
			return out, err
		}
		out = append(out, answer{values: f.Values})
	}
	return out, nil
}

// runner drives one run: setsPerRun independent sets, one after the
// other, each against its own freshly spawned processes.
type runner struct {
	cfg runConfig
	s   *spec
	tr  *tracer

	// The set in progress.
	seed int64 // the set's seed
	pop  *population
	topo *topology
	sess *session
	or   *oracle

	attempted, failed int
	complaints        int

	frameBuf bytes.Buffer       // live fleet: the batch being encoded
	frameEnc *transport.Encoder // writes into frameBuf
	liveBufs [][]transport.Msg  // live fleet: reusable batch buffers
	liveMsgs [][]transport.Msg  // live fleet: this round's batches, for the reference
	acks     []bool             // this round's acks, in send order
	answers  []answer           // this round's served answers, checked after the burst
	inflight int

	lat []float64 // the set's query latencies in ms, issue order

	// The run's per-round and per-group values, over all sets: the
	// timing metrics are their fast tails.
	rates      [2][]float64 // per-round write-burst reports/s; [1] = traced rounds
	p50s, p95s []float64    // per-200-query-group median and p95

	// One value per finished set; the run reports their medians.
	est struct {
		setup, rss, rms, linf, spin []float64
	}

	// Run totals.
	rounds      int // rounds run so far, over all sets: the tracer's round id
	ingestBytes int64
	reports     int64
	burstTime   time.Duration
	window      time.Duration      // summed measured windows of the sets
	allLat      []float64          // every query latency of the run
	steal, cpu  int64              // /proc/stat jiffies over the measured windows
	extra       map[string]float64 // traced runs: metrics taken while the sets ran
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if r.complaints++; r.complaints <= 5 {
		fmt.Fprintf(os.Stderr, "rtf-bench: %s: "+format+"\n", append([]any{r.s.name}, args...)...)
	}
}

// setUp spawns the set's topology, runs the client fleet and registers
// the population. Its duration is one setup_s sample: from the first
// spawn to the moment the first timed round may start.
func (r *runner) setUp() (time.Duration, error) {
	start := time.Now()
	topo, err := startTopology(r.cfg, hashSeedFor(r.seed))
	if err != nil {
		return 0, err
	}
	r.topo = topo
	if r.pop, err = buildPopulation(r.s, r.cfg.seconds, r.seed, r.s.live); err != nil {
		return 0, err
	}
	if r.sess, err = dial(topo.target.addr, r.s.mode != modeBool); err != nil {
		return 0, err
	}
	if r.or, err = newOracle(r.s, r.pop.hashSeed); err != nil {
		return 0, err
	}
	if err := r.registerPopulation(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// registerPopulation ships every user's hello in acked batches and
// registers the same users with the reference.
func (r *runner) registerPopulation() error {
	if err := r.sess.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return err
	}
	var ms []transport.Msg
	r.acks = r.acks[:0]
	flush := func() error {
		if len(ms) == 0 {
			return nil
		}
		frame, err := r.encodeFrame(ms)
		if err != nil {
			return err
		}
		ms = ms[:0]
		return r.send(frame)
	}
	for u := range r.pop.hellos {
		ms = append(ms, r.pop.helloMsg(u))
		if len(ms) == batchReports {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := r.drainAcks(); err != nil {
		return err
	}
	for i, ok := range r.acks {
		if !ok {
			return fmt.Errorf("hello batch %d was shed", i)
		}
	}
	for _, h := range r.pop.hellos {
		if err := r.or.register(h); err != nil {
			return err
		}
	}
	return nil
}

// encodeFrame encodes one acked batch; the returned bytes are valid
// until the next call.
func (r *runner) encodeFrame(ms []transport.Msg) ([]byte, error) {
	if r.frameEnc == nil {
		r.frameEnc = transport.NewEncoder(&r.frameBuf)
	}
	r.frameBuf.Reset()
	if err := r.frameEnc.EncodeAckedBatch(ms); err != nil {
		return nil, err
	}
	if err := r.frameEnc.Flush(); err != nil {
		return nil, err
	}
	return r.frameBuf.Bytes(), nil
}

// send writes one acked-batch frame, first reading an ack when the
// window is full: at most ackWindow batches are ever unacknowledged.
func (r *runner) send(frame []byte) error {
	if r.inflight == ackWindow {
		if err := r.readAck(); err != nil {
			return err
		}
	}
	id := r.tr.begin(spanSend)
	_, err := r.sess.conn.Write(frame)
	r.tr.end(id)
	r.inflight++
	return err
}

func (r *runner) readAck() error {
	id := r.tr.begin(spanAwaitAcks)
	applied, err := r.sess.dec.ReadBatchAck()
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("reading batch ack: %w", err)
	}
	r.inflight--
	r.acks = append(r.acks, applied)
	return nil
}

func (r *runner) drainAcks() error {
	for r.inflight > 0 {
		if err := r.readAck(); err != nil {
			return err
		}
	}
	return nil
}

// replayBatches returns the corpus batch indices of a round.
func (r *runner) replayBatches(round int) (lo, hi int) {
	w := r.s.batchesPerRound
	lo = (round % r.pop.sz.roundsPerPass) * w
	return lo, lo + w
}

// writeBurst runs the round's write burst and returns its report
// count, bytes and duration (first byte written → last ack read).
func (r *runner) writeBurst(round int) (reports int, wire int64, dur time.Duration, err error) {
	r.acks = r.acks[:0]
	wb := r.tr.begin(spanWriteBurst)
	start := time.Now()
	if r.s.live {
		reports, wire, err = r.liveBurst(round)
	} else {
		lo, hi := r.replayBatches(round)
		for b := lo; b < hi && err == nil; b++ {
			reports += len(r.pop.reps[b])
			wire += int64(len(r.pop.frames[b]))
			err = r.send(r.pop.frames[b])
		}
	}
	if err == nil {
		err = r.drainAcks()
	}
	dur = time.Since(start)
	r.tr.end(wb)
	return reports, wire, dur, err
}

// liveBurst advances one cohort of the live fleet through one block
// of periods, shipping its reports as they fill batches. Rounds run
// time-major: every cohort passes block b before any enters b+1.
func (r *runner) liveBurst(round int) (reports int, wire int64, err error) {
	s := r.s
	cohorts := r.pop.sz.users / s.cohort
	cohort, block := round%cohorts, round/cohorts
	r.liveMsgs = r.liveMsgs[:0]
	cur := r.liveBuf(0)
	flush := func() error {
		eid := r.tr.begin(spanEncode)
		frame, err := r.encodeFrame(cur)
		r.tr.end(eid)
		if err != nil {
			return err
		}
		reports += len(cur)
		wire += int64(len(frame))
		r.liveMsgs = append(r.liveMsgs, cur)
		cur = r.liveBuf(len(r.liveMsgs))
		return r.send(frame)
	}
	rid := r.tr.begin(spanRandomize)
	for u := cohort * s.cohort; u < (cohort+1)*s.cohort; u++ {
		lu := &r.pop.live[u]
		ct := r.pop.boolW.Users[u].ChangeTimes
		for t := block*s.block + 1; t <= (block+1)*s.block; t++ {
			rep, ok := lu.observe(ct, t)
			if !ok {
				continue
			}
			cur = append(cur, transport.FromReport(protocol.Report{User: rep.User, Order: rep.Order, J: rep.J, Bit: rep.Bit}))
			if len(cur) == batchReports {
				r.tr.end(rid)
				if err := flush(); err != nil {
					return reports, wire, err
				}
				rid = r.tr.begin(spanRandomize)
			}
		}
	}
	r.tr.end(rid)
	if len(cur) > 0 {
		if err := flush(); err != nil {
			return reports, wire, err
		}
	}
	return reports, wire, nil
}

// liveBuf returns the reusable message buffer for the round's i-th
// batch, emptied.
func (r *runner) liveBuf(i int) []transport.Msg {
	for len(r.liveBufs) <= i {
		r.liveBufs = append(r.liveBufs, make([]transport.Msg, 0, batchReports))
	}
	return r.liveBufs[i][:0]
}

// feedOracle folds the round's acknowledged batches into the
// reference; a shed batch is a failed operation and is not folded.
func (r *runner) feedOracle(round int) error {
	id := r.tr.begin(spanOracle)
	defer r.tr.end(id)
	lo, _ := r.replayBatches(round)
	for i, applied := range r.acks {
		r.attempted++
		if !applied {
			r.fail("round %d: batch %d was shed", round, i)
			continue
		}
		var err error
		if r.s.live {
			err = r.ingestMsgs(r.liveMsgs[i])
		} else {
			err = r.ingestReps(r.pop.reps[lo+i])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// timed asks one query and returns its socket-to-socket latency; the
// served answer is appended to r.answers. A transport error is a failed
// operation.
func (r *runner) timed(q query) (time.Duration, error) {
	start := time.Now()
	var err error
	r.answers, err = r.sess.ask(r.answers, q)
	dur := time.Since(start)
	r.attempted++
	if err != nil {
		r.failed++
		return dur, fmt.Errorf("%s query: %w", q.ref.Kind, err)
	}
	return dur, nil
}

// verify checks a served answer against the reference bit for bit; a
// difference is a failed operation.
func (r *runner) verify(q query, got answer) error {
	want, err := r.or.answer(q.ref)
	if err == nil && !got.equal(want) {
		r.fail("%s query %+v: served answer differs from the reference", q.ref.Kind, q.ref)
	}
	return err
}

// verified asks queries outside the read bursts, pipelined 64 at a
// time, checks every answer and returns them. They are valid until the
// next query is asked.
func (r *runner) verified(qs ...query) ([]answer, error) {
	r.answers = r.answers[:0]
	for lo := 0; lo < len(qs); lo += 64 {
		page := qs[lo:min(lo+64, len(qs))]
		var err error
		r.answers, err = r.sess.ask(r.answers, page...)
		r.attempted += len(page)
		if err != nil {
			r.failed += len(page)
			return nil, fmt.Errorf("%s query: %w", page[0].ref.Kind, err)
		}
	}
	for i, q := range qs {
		if err := r.verify(q, r.answers[i]); err != nil {
			return nil, err
		}
	}
	return r.answers, nil
}

// readBurst runs the round's closed-loop read burst: one query in
// flight, each timed socket to socket, the next sent as soon as the
// previous answer is decoded. The answers are kept for checking after
// the burst: consulting the reference between two queries would idle
// the serving side for as long as the reference takes, and the
// harness's own bookkeeping would decide which mode the loop runs in.
func (r *runner) readBurst(plan []query) error {
	id := r.tr.begin(spanReadBurst)
	defer r.tr.end(id)
	r.answers = r.answers[:0]
	for _, q := range plan {
		dur, err := r.timed(q)
		if err != nil {
			return err
		}
		r.lat = append(r.lat, float64(dur)/float64(time.Millisecond))
	}
	return nil
}

// runRounds runs every round of the set. In a traced run odd rounds
// record spans and even rounds do not, so the two halves see the same
// host conditions and their difference is the tracing overhead.
func (r *runner) runRounds() error {
	sz := r.pop.sz
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0x5eed))
	cohorts := 1
	if r.s.live {
		cohorts = sz.users / r.s.cohort
	}
	for round := 0; round < sz.rounds; round++ {
		traced := r.cfg.trace && round%2 == 1
		r.tr.on, r.tr.round = traced, r.rounds
		r.rounds++
		if err := r.sess.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
			return err
		}
		plan := r.s.plan(r.s, rng, round/cohorts)
		rid := r.tr.begin(spanRound)
		reports, wire, dur, err := r.writeBurst(round)
		if err != nil {
			r.attempted++
			r.failed++
			return fmt.Errorf("round %d write burst: %w", round, err)
		}
		which := 0
		if traced {
			which = 1
		}
		r.rates[which] = append(r.rates[which], float64(reports)/dur.Seconds())
		r.reports += int64(reports)
		r.ingestBytes += wire
		r.burstTime += dur
		if err := r.readBurst(plan); err != nil {
			return fmt.Errorf("round %d read burst: %w", round, err)
		}
		if err := r.feedOracle(round); err != nil {
			return err
		}
		vid := r.tr.begin(spanVerify)
		for i, q := range plan {
			if err := r.verify(q, r.answers[i]); err != nil {
				return err
			}
		}
		r.tr.end(vid)
		r.tr.end(rid)
		if round == sz.roundsPerPass-1 {
			r.tr.on = false
			if err := r.accuracy(); err != nil {
				return fmt.Errorf("accuracy check: %w", err)
			}
		}
	}
	r.tr.on = false
	return nil
}

// accuracy runs once every report of the seeded population has been
// applied exactly once. It measures how far the served estimates are
// from the ground truth the private reports were generated from:
//
//   - Boolean: the net change over every dyadic interval of [1..d]
//     (2d−1 Change queries; each is one tree node, so the errors are
//     independent draws of the protocol's per-node noise), plus the
//     full series for the L∞ diagnostic.
//   - Domain: PointItem over a fixed sample of ≤ 1024 items (the true
//     top 16 included) at 8 evenly spaced periods.
//
// rms_err_frac is the root-mean-square error ÷ n: a function of
// thousands of independent noise draws, so it is steady across seeds.
// linf_err_frac, the paper's metric, is the maximum of far fewer and
// moves by 10–15 % from seed to seed; it is reported as a diagnostic.
func (r *runner) accuracy() error {
	s, n := r.s, float64(r.pop.sz.users)
	var sumSq, linf float64
	var qs []query
	if s.mode == modeBool {
		truth := r.pop.boolW.Truth()
		at := func(t int) float64 {
			if t == 0 {
				return 0
			}
			return float64(truth[t-1])
		}
		var want []float64
		for width := 1; width <= s.d; width *= 2 {
			for l := 1; l+width-1 <= s.d; l += width {
				qs = append(qs, wireQuery(ldp.ChangeQuery(l, l+width-1)))
				want = append(want, at(l+width-1)-at(l-1))
			}
		}
		qs = append(qs, wireQuery(ldp.SeriesQuery()))
		got, err := r.verified(qs...)
		if err != nil {
			return err
		}
		for i, w := range want {
			e := got[i].values[0] - w
			sumSq += e * e
		}
		for t, v := range got[len(want)].values {
			linf = math.Max(linf, math.Abs(v-at(t+1)))
		}
		r.est.rms = append(r.est.rms, math.Sqrt(sumSq/float64(len(want)))/n)
	} else {
		times := make([]int, 8)
		for i := range times {
			times[i] = (i + 1) * s.d / 8
		}
		truth := domainTruth(r.pop.domW, times)
		items, top := sampleItems(truth[len(times)-1], 1024, 16)
		for _, t := range times {
			for _, x := range items {
				qs = append(qs, wireQuery(ldp.PointItemQuery(x, t)))
			}
		}
		got, err := r.verified(qs...)
		if err != nil {
			return err
		}
		for i, q := range qs {
			e := got[i].values[0] - float64(truth[i/len(items)][q.ref.Item])
			sumSq += e * e
			if top[q.ref.Item] {
				linf = math.Max(linf, math.Abs(e))
			}
		}
		r.est.rms = append(r.est.rms, math.Sqrt(sumSq/float64(len(qs)))/n)
	}
	r.est.linf = append(r.est.linf, linf/n)
	return nil
}

// domainTruth counts, for each listed period, how many users hold each
// item.
func domainTruth(w *ldp.DomainWorkload, times []int) [][]int32 {
	truth := make([][]int32, len(times))
	for i := range truth {
		truth[i] = make([]int32, w.M)
	}
	for _, u := range w.Users {
		for i, t := range times {
			if v := u.ValueAt(t); v >= 0 {
				truth[i][v]++
			}
		}
	}
	return truth
}

// sampleItems picks at most n items to score: the top most frequent
// under freq (ties toward the smaller item) plus an even spread over
// the catalogue. It also returns which of them are the top ones.
func sampleItems(freq []int32, n, top int) ([]int, map[int]bool) {
	m := len(freq)
	isTop := make(map[int]bool, top)
	for len(isTop) < top && len(isTop) < m {
		best := -1
		for x, f := range freq {
			if !isTop[x] && (best < 0 || f > freq[best]) {
				best = x
			}
		}
		isTop[best] = true
	}
	picked := make(map[int]bool, n)
	var items []int
	add := func(x int) {
		if !picked[x] {
			picked[x] = true
			items = append(items, x)
		}
	}
	for x := 0; x < m; x++ {
		if isTop[x] {
			add(x)
		}
	}
	stride := m / n
	if stride < 1 {
		stride = 1
	}
	for x := 0; x < m && len(items) < n; x += stride {
		add(x)
	}
	return items, isTop
}

// finalCheck compares the served raw interval sums with the
// reference's counters over the given session.
func (r *runner) finalCheck(sess *session) {
	r.attempted++
	err := sess.conn.SetDeadline(time.Now().Add(opTimeout))
	if err == nil {
		err = sess.enc.Encode(sumsRequest(r.s, r.pop.hashSeed))
	}
	if err == nil {
		err = sess.enc.Flush()
	}
	if err == nil {
		err = r.or.checkSums(sess.dec)
	}
	if err != nil {
		r.fail("final raw-sums check: %v", err)
	}
}

// recoveryCheck restarts the durable server on its data directory and
// re-checks the recovered state bit for bit: the raw sums and one
// query of each served shape.
func (r *runner) recoveryCheck() error {
	if err := r.topo.restart(); err != nil {
		return fmt.Errorf("restarting on the data directory: %w", err)
	}
	sess, err := dial(r.topo.target.addr, false)
	if err != nil {
		return err
	}
	r.sess = sess
	if _, err := r.verified(wireQuery(ldp.SeriesQuery()), wireQuery(ldp.PointQuery(r.s.d)),
		wireQuery(ldp.ChangeQuery(1, r.s.d)), wireQuery(ldp.WindowQuery(r.s.d/4, r.s.d/2))); err != nil {
		return err
	}
	r.finalCheck(sess)
	return nil
}

// snapshotWatcher counts the distinct snapshot files that appear in a
// data directory while it runs (rtf-serve keeps only the newest two).
type snapshotWatcher struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	seen  map[string]bool
}

func watchSnapshots(dir string) *snapshotWatcher {
	w := &snapshotWatcher{stopc: make(chan struct{}), seen: make(map[string]bool)}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			names, _ := filepath.Glob(filepath.Join(dir, "snap-*.rtfs")) // a pattern this fixed cannot be malformed
			for _, n := range names {
				w.seen[n] = true
			}
			select {
			case <-w.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the watcher and returns how many snapshots it saw.
func (w *snapshotWatcher) stop() int {
	close(w.stopc)
	w.wg.Wait()
	return len(w.seen)
}
