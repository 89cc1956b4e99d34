package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/ldp"
	"rtf/workload"
)

// Protocol parameters shared by every workload.
const (
	mechanism = "futurerand"
	sparsityK = 8
	epsilon   = 1.0
	zipfS     = 1.2 // item popularity exponent of the domain populations

	// setsPerRun is how many independent sets one run measures. Each set
	// spawns its own processes, builds its own population (seed derived
	// from the run's) and runs its own rounds; every timing metric is the
	// median of the per-set estimates, so one unlucky process instance or
	// a slow episode shorter than two sets cannot own a metric.
	setsPerRun = 5
)

const (
	// batchReports is the target reports per acked batch. It stays well
	// under 4096: past that many messages the server's Decoder drops and
	// reallocates its pending buffer on every frame (maxRetainedBatch) and
	// ingest runs three times slower.
	batchReports = 2048
	ackWindow    = 8 // acked batches in flight during a write burst
)

type mode int

const (
	modeBool   mode = iota // Boolean protocol, rtf-serve without -m
	modeExact              // exact domain encoding, one row per item
	modeHashed             // loloha encoding, g bucket rows
)

// spec is one workload's fixed shape. Sizes are given per set and per
// second of -seconds budget and scale linearly with it, so at a given
// -seconds the op counts are a pure function of the seed.
type spec struct {
	name string
	why  string
	mode mode
	d    int // horizon
	m, g int // catalogue size and bucket count (domain modes)

	durable bool // rtf-serve -data-dir: WAL + periodic snapshots, restart at the end
	gateway bool // rtf-gateway (static) over two in-memory backends
	live    bool // the client fleet randomizes inside the timed write burst

	// Live fleet: a round advances one cohort of users through one
	// aligned block of periods. cohortsPerSec sizes a set's population.
	cohort, block int
	cohortsPerSec float64

	// Replayed corpus: usersPerSec sizes the fleet that produces a set's
	// corpus in set-up; it is replayed passes times in rounds of
	// batchesPerRound.
	usersPerSec     float64
	passes          int
	batchesPerRound int

	// plan returns the read burst of one round: the same composition
	// every round, parameters drawn from rng. For the live fleet,
	// block is the block of periods the round just advanced.
	plan func(s *spec, rng *rand.Rand, block int) []query
}

// The read bursts keep the expensive query class at ≥ 1/8 of the burst
// (1/16 where it costs 100× the cheap one), so a 200-query group's
// median sits inside the cheap class and its p95 inside the expensive
// one instead of flipping across the boundary. The cheap class runs in
// long uninterrupted sequences: a closed loop on a virtual CPU is
// bistable (both ends asleep between messages and every hop pays a
// halted vCPU's wake-up, or both ends still spinning and a hop takes
// microseconds), the first queries after a gap pay the wake-ups, and
// the group's median must sit among the rest.
var specs = []*spec{
	{
		name: "fleet-online",
		why:  "live ldp.Client fleet randomizes and encodes inside the timed write burst, then the paper's per-period online queries: the only workload where client-side cost dominates",
		mode: modeBool, d: 1024, live: true,
		cohort: 8192, block: 32, cohortsPerSec: 0.35,
		plan: func(s *spec, rng *rand.Rand, block int) []query {
			// The online output — a Point query for each of the 32 periods of
			// the block just closed — then 8 full Series, then 24 Point
			// look-ups into the periods observed so far. The Series sit in
			// the middle, away from the transient after the write burst.
			hi := (block + 1) * s.block
			qs := make([]query, 0, 64)
			for t := block*s.block + 1; t <= hi; t++ {
				qs = append(qs, wireQuery(ldp.PointQuery(t)))
			}
			for i := 0; i < 8; i++ {
				qs = append(qs, wireQuery(ldp.SeriesQuery()))
			}
			for i := 0; i < 24; i++ {
				qs = append(qs, wireQuery(ldp.PointQuery(1+rng.IntN(hi))))
			}
			return qs
		},
	},
	{
		name: "bool-durable",
		why:  "pre-encoded corpus replayed at a durable rtf-serve: WAL on the ack path, snapshots mid-run, restart and recovery at the end; the generator idles, so the server write path is the bottleneck",
		mode: modeBool, d: 1024, durable: true,
		usersPerSec: 1000, passes: 3, batchesPerRound: 16,
		plan: func(s *spec, rng *rand.Rand, _ int) []query {
			// 28 Change queries (one value each), 8 Window queries over at
			// least 7/8 of the horizon (kilobytes of answer each), 28 more
			// Change queries. The Windows sit in the middle, away from the
			// transient after the write burst.
			change := func() query {
				l := 1 + rng.IntN(s.d)
				return wireQuery(ldp.ChangeQuery(l, l+rng.IntN(s.d-l+1)))
			}
			qs := make([]query, 0, 64)
			for i := 0; i < 28; i++ {
				qs = append(qs, change())
			}
			for i := 0; i < 8; i++ {
				qs = append(qs, wireQuery(ldp.WindowQuery(1+rng.IntN(s.d/8), s.d)))
			}
			for i := 0; i < 28; i++ {
				qs = append(qs, change())
			}
			return qs
		},
	},
	{
		name: "domain-rw",
		why:  "exact-encoding writes beside TopK/PointItem/SeriesItem reads through one hh memo and DomainSharded matrix: a read index that taxes apply, or slower invalidation, moves one metric up and one down",
		mode: modeExact, d: 256, m: 1024,
		usersPerSec: 1000, passes: 8, batchesPerRound: 8,
		plan: func(s *spec, rng *rand.Rand, _ int) []query {
			// 8 × (TopK at a fresh t — the write burst bumped the version, and
			// the memo holds one period: a cold sweep — then 5 repeats: memo
			// hits), 8 PointItem, 8 SeriesItem.
			qs := make([]query, 0, 64)
			for _, t := range distinctTimes(rng, s.d, 8) {
				for i := 0; i < 6; i++ {
					qs = append(qs, wireQuery(ldp.TopKQuery(t, 10)))
				}
			}
			for i := 0; i < 8; i++ {
				qs = append(qs, wireQuery(ldp.PointItemQuery(rng.IntN(s.m), 1+rng.IntN(s.d))))
			}
			for i := 0; i < 8; i++ {
				qs = append(qs, wireQuery(ldp.SeriesItemQuery(rng.IntN(s.m))))
			}
			return qs
		},
	},
	{
		name: "gateway-hashed",
		why:  "loloha catalogue through rtf-gateway over two backends: forward, fence, scatter/gather, answer cache and the full-catalogue hashed decode carry the time; single-node changes should not move it",
		mode: modeHashed, d: 128, m: 1 << 18, g: 256, gateway: true,
		usersPerSec: 400, passes: 11, batchesPerRound: 8,
		plan: func(s *spec, rng *rand.Rand, _ int) []query {
			// TopK at one fresh t, 32 times. The first query is this
			// connection's fence (its own gather), the second misses the
			// answer cache (a second gather): 2 of 32 carry a scatter/gather
			// + fold + full-catalogue decode, at 100× the cost of the rest,
			// so a 200-query group's p95 (ten samples beyond it, twelve
			// such queries in it) always lands on one. The other 30 are
			// answer-cache + memo hits in one uninterrupted run.
			q := wireQuery(ldp.TopKQuery(1+rng.IntN(s.d), 10))
			qs := make([]query, 32)
			for i := range qs {
				qs[i] = q
			}
			return qs
		},
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// distinctTimes draws n distinct periods in [1..d].
func distinctTimes(rng *rand.Rand, d, n int) []int {
	ts := make([]int, 0, n)
	for len(ts) < n {
		t := 1 + rng.IntN(d)
		dup := false
		for _, o := range ts {
			dup = dup || o == t
		}
		if !dup {
			ts = append(ts, t)
		}
	}
	return ts
}

// query pairs the wire frame sent to the serving process with the
// same question put to the in-process reference.
type query struct {
	wire transport.Msg
	ref  ldp.Query
}

// wireQuery builds the wire frame for q. ldp and transport query kinds
// are pinned 1:1 by the repo's querywire test.
func wireQuery(q ldp.Query) query {
	kind := transport.QueryKind(q.Kind)
	switch q.Kind {
	case ldp.Point:
		return query{transport.QueryV2(kind, q.T, q.T), q}
	case ldp.Change, ldp.Window, ldp.Series:
		return query{transport.QueryV2(kind, q.L, q.R), q}
	default: // item-scoped
		return query{transport.DomainQuery(kind, q.Item, q.T, 0, q.K), q}
	}
}

// options are the ldp options every client, factory and reference
// server of the workload is built with.
func (s *spec) options(hashSeed uint64) []ldp.Option {
	opts := []ldp.Option{ldp.WithMechanism(mechanism), ldp.WithSparsity(sparsityK), ldp.WithEpsilon(epsilon)}
	if s.mode == modeHashed {
		opts = append(opts, ldp.WithDomainEncoding("loloha"), ldp.WithBuckets(s.g), ldp.WithHashSeed(hashSeed))
	}
	return opts
}

// sizes are one set's op counts at one -seconds value.
type sizes struct {
	users         int
	rounds        int
	roundsPerPass int // rounds until every report has been applied once
}

// size resolves a set's user count for a -seconds budget. The round
// counts of a replayed corpus depend on how many reports the fleet
// emits and are fixed by buildPopulation.
func (s *spec) size(seconds float64) sizes {
	if s.live {
		cohorts := int(math.Max(1, math.Round(seconds*s.cohortsPerSec)))
		perPass := cohorts * s.d / s.block
		return sizes{users: cohorts * s.cohort, rounds: perPass, roundsPerPass: perPass}
	}
	return sizes{users: int(math.Max(64, math.Round(seconds*s.usersPerSec)))}
}

// rep is one report as the reference engine needs it; 16 bytes, so a
// multi-million-report corpus stays small.
type rep struct {
	user, item, j int32
	order, bit    int8
}

type hello struct{ item, order int32 }

// liveUser is one member of the live fleet: its client plus a cursor
// into its change list, so values are produced period by period
// without materializing the stream.
type liveUser struct {
	cl   *ldp.Client
	next int32 // index of the next unapplied change time
	val  bool
}

// population is everything set-up generates from the seed: the users'
// data, their registration hellos, and either the live fleet or the
// pre-encoded report corpus.
type population struct {
	spec     *spec
	sz       sizes
	hashSeed uint64
	boolW    *workload.Workload
	domW     *ldp.DomainWorkload
	hellos   []hello

	live []liveUser // live fleet

	frames  [][]byte // replay: one encoded acked batch each
	reps    [][]rep  // replay: the same batches for the reference
	reports int      // replay: reports in one pass

	// What the fleet cost to build and run, for the per-layer ladder:
	// time inside NewClient, time inside Observe (replay only) and the
	// number of Observe calls.
	newClientTime, observeTime time.Duration
	observes                   int
}

func userSeed(seed int64, u int) int64 { return seed*1_000_003 + int64(u) }

// setSeed derives the seed of a run's i-th set, so the five sets of a
// run see five different populations and no two runs share one.
func setSeed(seed int64, set int) int64 { return seed*16 + int64(set) }

// hashSeedFor derives the loloha epoch hash seed from the set seed, so
// the item→bucket map replays from -seed like everything else.
func hashSeedFor(seed int64) uint64 { return uint64(seed)*0x9e3779b97f4a7c15 + 0x10f0 }

// buildPopulation generates a set's users from seed and runs the real
// client fleet: with live set it only constructs the clients (they
// randomize inside the timed rounds), otherwise it drives every client
// through all d periods and encodes the reports into acked-batch
// frames of ≈ batchReports each.
func buildPopulation(s *spec, seconds float64, seed int64, live bool) (*population, error) {
	p := &population{spec: s, sz: s.size(seconds), hashSeed: hashSeedFor(seed)}
	n := p.sz.users
	opts := s.options(p.hashSeed)
	p.hellos = make([]hello, n)
	var corpus []rep

	if s.mode == modeBool {
		w, err := workload.Generate(workload.Uniform{N: n, D: s.d, K: sparsityK}, seed)
		if err != nil {
			return nil, err
		}
		p.boolW = w
		f, err := ldp.NewClientFactory(s.d, opts...)
		if err != nil {
			return nil, err
		}
		if live {
			p.live = make([]liveUser, n)
		}
		for u := 0; u < n; u++ {
			t0 := time.Now()
			cl, err := f.NewClient(u, userSeed(seed, u))
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			p.newClientTime += t1.Sub(t0)
			p.hellos[u] = hello{order: int32(cl.Order())}
			if live {
				p.live[u].cl = cl
				continue
			}
			lu := liveUser{cl: cl}
			for t := 1; t <= s.d; t++ {
				if r, ok := lu.observe(w.Users[u].ChangeTimes, t); ok {
					corpus = append(corpus, rep{user: int32(u), j: int32(r.J), order: int8(r.Order), bit: r.Bit})
				}
			}
			p.observeTime += time.Since(t1)
			p.observes += s.d
		}
	} else {
		w, err := ldp.GenerateDomain(n, s.d, s.m, sparsityK, zipfS, seed)
		if err != nil {
			return nil, err
		}
		p.domW = w
		f, err := ldp.NewDomainClientFactory(s.d, s.m, opts...)
		if err != nil {
			return nil, err
		}
		for u := 0; u < n; u++ {
			t0 := time.Now()
			cl, err := f.NewClient(u, userSeed(seed, u))
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			p.newClientTime += t1.Sub(t0)
			p.hellos[u] = hello{item: int32(cl.Item()), order: int32(cl.Order())}
			val, next := -1, 0
			changes := w.Users[u].Changes
			for t := 1; t <= s.d; t++ {
				for next < len(changes) && changes[next].T == t {
					val = changes[next].Value
					next++
				}
				r, ok, err := cl.Observe(val)
				if err != nil {
					return nil, err
				}
				if ok {
					corpus = append(corpus, rep{user: int32(u), item: int32(r.Item), j: int32(r.J), order: int8(r.Order), bit: r.Bit})
				}
			}
			p.observeTime += time.Since(t1)
			p.observes += s.d
		}
	}
	if live {
		return p, nil
	}

	// Cut the corpus into a whole number of rounds: B batches of equal
	// size (±1 report, ≈ batchReports), B a multiple of batchesPerRound,
	// so a pass ends exactly on a round boundary and every round has the
	// same composition.
	w := max(1, s.batchesPerRound) // the ladder cuts the live workload's sample too
	perPass := int(math.Max(1, math.Round(float64(len(corpus))/float64(batchReports*w))))
	nb := perPass * w
	if len(corpus) < nb {
		return nil, fmt.Errorf("%s: %d reports cannot fill %d batches", s.name, len(corpus), nb)
	}
	p.reports = len(corpus)
	p.sz.roundsPerPass = perPass
	p.sz.rounds = perPass * s.passes
	p.frames = make([][]byte, nb)
	p.reps = make([][]rep, nb)
	var buf bytes.Buffer
	enc := transport.NewEncoder(&buf)
	var ms []transport.Msg
	for b := 0; b < nb; b++ {
		lo, hi := b*len(corpus)/nb, (b+1)*len(corpus)/nb
		p.reps[b] = corpus[lo:hi]
		ms = ms[:0]
		for _, r := range corpus[lo:hi] {
			ms = append(ms, r.msg(s.mode))
		}
		buf.Reset()
		if err := enc.EncodeAckedBatch(ms); err != nil {
			return nil, err
		}
		if err := enc.Flush(); err != nil {
			return nil, err
		}
		p.frames[b] = append([]byte(nil), buf.Bytes()...)
	}
	return p, nil
}

// observe advances the user to period t (periods must be fed in
// order) and hands the value to the client.
func (lu *liveUser) observe(changeTimes []int, t int) (ldp.Report, bool) {
	for int(lu.next) < len(changeTimes) && changeTimes[lu.next] == t {
		lu.val = !lu.val
		lu.next++
	}
	return lu.cl.Observe(lu.val)
}

// msg is the report's wire message.
func (r rep) msg(m mode) transport.Msg {
	pr := protocol.Report{User: int(r.user), Order: int(r.order), J: int(r.j), Bit: r.bit}
	if m == modeBool {
		return transport.FromReport(pr)
	}
	return transport.FromDomainReport(int(r.item), pr)
}

// helloMsg is user u's registration message.
func (p *population) helloMsg(u int) transport.Msg {
	h := p.hellos[u]
	switch p.spec.mode {
	case modeBool:
		return transport.Hello(u, int(h.order))
	case modeExact:
		return transport.DomainHello(u, int(h.item), int(h.order))
	default:
		return transport.HashedDomainHello(u, int(h.item), int(h.order), p.hashSeed)
	}
}
