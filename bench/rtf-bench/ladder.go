package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rtf/internal/hh"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/ldp"
)

// The ladder replays a fixed sample of the workload's own corpus
// in-process through each layer's public functions, one rung per
// layer, so a traced run can say how many nanoseconds of a report or
// microseconds of an answer each layer accounts for. The sample is
// buildPopulation's output at a tenth of a set's size — the same
// seeded users, fleet, reports and frames the end-to-end run sends.
// Every rung but the fleet's is timed best-of-ladderReps: interference
// only ever adds time.

const ladderReps = 5

// bestOf returns the fastest of ladderReps executions of f.
func bestOf(f func() error) (time.Duration, error) {
	best := time.Duration(-1)
	for i := 0; i < ladderReps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func perUnit(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(n)
}

// runLadder measures the per-layer rungs for workload s and stores
// them into m. scratchDir hosts the durable rung's data directory.
func runLadder(s *spec, seconds float64, seed int64, scratchDir string, m map[string]float64) error {
	hashSeed := hashSeedFor(seed)

	// Rung 1: the client fleet, as set-up runs it.
	pop, err := buildPopulation(s, seconds/10, seed, false)
	if err != nil {
		return err
	}
	users := pop.sz.users
	if s.mode == modeBool {
		m["core.new_client_ns"] = perUnit(pop.newClientTime, users, time.Nanosecond)
		m["core.observe_ns"] = perUnit(pop.observeTime, pop.observes, time.Nanosecond)
		m["core.reports_per_user"] = float64(pop.reports) / float64(users)
	} else {
		m["hh.domain_observe_ns"] = perUnit(pop.observeTime, pop.observes, time.Nanosecond)
	}
	n := pop.reports
	batches := make([][]transport.Msg, len(pop.reps))
	for b, rs := range pop.reps {
		for _, r := range rs {
			batches[b] = append(batches[b], r.msg(s.mode))
		}
	}

	// Rung 2: the wire. Encode, then decode the same bytes, then
	// validate the decoded messages.
	var wire bytes.Buffer
	d, err := bestOf(func() error {
		wire.Reset()
		enc := transport.NewEncoder(&wire)
		for _, ms := range batches {
			if err := enc.EncodeAckedBatch(ms); err != nil {
				return err
			}
		}
		return enc.Flush()
	})
	if err != nil {
		return err
	}
	m["transport.encode_ns_per_report"] = perUnit(d, n, time.Nanosecond)
	if want := bytes.Join(pop.frames, nil); !bytes.Equal(wire.Bytes(), want) {
		return fmt.Errorf("re-encoded sample differs from the corpus frames (%d vs %d bytes)", wire.Len(), len(want))
	}
	d, err = bestOf(func() error {
		dec := transport.NewDecoder(bytes.NewReader(wire.Bytes()))
		for range batches {
			if _, err := dec.NextBatch(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["transport.decode_ns_per_report"] = perUnit(d, n, time.Nanosecond)
	enc := hh.LolohaEncoding(s.m, s.g, hashSeed)
	validate := func(msg transport.Msg) error {
		switch s.mode {
		case modeBool:
			return transport.ValidateIngest(s.d, msg)
		case modeExact:
			return transport.ValidateDomainIngest(s.d, s.m, msg)
		default:
			return transport.ValidateHashedDomainIngest(s.d, enc, msg)
		}
	}
	d, err = bestOf(func() error {
		for _, ms := range batches {
			for _, msg := range ms {
				if err := validate(msg); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["transport.validate_ns_per_report"] = perUnit(d, n, time.Nanosecond)

	// Rung 3: the accumulator behind a collector, as rtf-serve wires it:
	// SendBatch validates the whole batch, then applies it. Its inlined
	// validation fast path is cheaper than the exported Validate*
	// functions timed above, so the rung reports SendBatch whole rather
	// than a difference that can come out negative.
	mech, ok := ldp.Lookup(mechanism)
	if !ok {
		return fmt.Errorf("mechanism %q not registered", mechanism)
	}
	scale, err := mech.EstimatorScale(ldp.Params{D: s.d, K: sparsityK, Eps: epsilon})
	if err != nil {
		return err
	}
	const shards = 2
	sendAll := func(c interface {
		SendBatch(int, []transport.Msg) error
	}) func() error {
		return func() error {
			for _, ms := range batches {
				if err := c.SendBatch(0, ms); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var answerEncode func(e *transport.Encoder) error
	switch s.mode {
	case modeBool:
		acc := protocol.NewSharded(s.d, scale, shards)
		col := transport.NewShardedCollector(acc)
		if d, err = bestOf(sendAll(col)); err != nil {
			return err
		}
		m["protocol.apply_ns_per_report"] = perUnit(d, n, time.Nanosecond)
		var series []float64
		d, _ = bestOf(func() error { series = acc.EstimateSeries(); return nil })
		m["protocol.estimate_series_us"] = perUnit(d, 1, time.Microsecond)
		d, _ = bestOf(func() error { acc.Fold(); return nil })
		m["protocol.fold_us"] = perUnit(d, 1, time.Microsecond)
		frame := transport.AnswerFrame{Kind: transport.QuerySeries, Values: series}
		answerEncode = func(e *transport.Encoder) error { return e.EncodeAnswer(frame) }
		if s.durable {
			if err := durableRung(s, scale, scratchDir, batches, n, m); err != nil {
				return err
			}
		}
	case modeExact:
		ds := hh.NewDomainServer(s.d, s.m, scale, shards)
		if d, err = bestOf(sendAll(transport.NewDomainCollector(ds))); err != nil {
			return err
		}
		m["protocol.domain_apply_ns_per_report"] = perUnit(d, n, time.Nanosecond)
		d, _ = bestOf(func() error { ds.EstimateItemSeries(0); return nil })
		m["protocol.estimate_series_us"] = perUnit(d, 1, time.Microsecond)
		d, _ = bestOf(func() error { transport.DomainSumsFromServer(ds); return nil })
		m["protocol.fold_us"] = perUnit(d, 1, time.Microsecond)
		cold, warm, top := topKRung(ds.AdvanceVersion, ds.TopK, s.d)
		m["hh.topk_cold_us"], m["hh.topk_warm_us"] = cold, warm
		answerEncode = topKAnswer(top)
	case modeHashed:
		hs := hh.NewHashedDomainServer(s.d, enc, scale, shards)
		if d, err = bestOf(sendAll(transport.NewHashedDomainCollector(hs))); err != nil {
			return err
		}
		m["protocol.domain_apply_ns_per_report"] = perUnit(d, n, time.Nanosecond)
		d, _ = bestOf(func() error { hs.EstimateItemSeries(0); return nil })
		m["protocol.estimate_series_us"] = perUnit(d, 1, time.Microsecond)
		d, _ = bestOf(func() error { transport.DomainSumsFromServer(hs.Inner()); return nil })
		m["protocol.fold_us"] = perUnit(d, 1, time.Microsecond)
		cold, warm, top := topKRung(hs.AdvanceVersion, hs.TopK, s.d)
		m["hh.hashed_topk_cold_us"], m["hh.hashed_topk_warm_us"] = cold, warm
		answerEncode = topKAnswer(top)
	}

	// Rung 4: encoding the workload's characteristic answer (the full
	// series for Boolean workloads, a top-10 for domain ones).
	e := transport.NewEncoder(io.Discard)
	d, err = bestOf(func() error {
		for i := 0; i < 100; i++ {
			if err := answerEncode(e); err != nil {
				return err
			}
		}
		return e.Flush()
	})
	if err != nil {
		return err
	}
	m["transport.answer_encode_us"] = perUnit(d, 100, time.Microsecond)
	return nil
}

// topKRung times TopK(t, 10) right after a version bump (cold: the
// full sweep) and again unchanged (warm: the memo), best of each over
// a few periods.
func topKRung(advance func(int), topK func(t, k int) []hh.ItemCount, d int) (coldUs, warmUs float64, top []hh.ItemCount) {
	cold, warm := time.Duration(-1), time.Duration(-1)
	for i := 0; i < ladderReps; i++ {
		t := 1 + (i*d/ladderReps)%d
		advance(0)
		start := time.Now()
		top = topK(t, 10)
		c := time.Since(start)
		start = time.Now()
		topK(t, 10)
		w := time.Since(start)
		if cold < 0 || c < cold {
			cold = c
		}
		if warm < 0 || w < warm {
			warm = w
		}
	}
	return perUnit(cold, 1, time.Microsecond), perUnit(warm, 1, time.Microsecond), top
}

func topKAnswer(top []hh.ItemCount) func(*transport.Encoder) error {
	frame := transport.DomainAnswerFrame{Kind: transport.QueryTopK, L: 1, K: len(top)}
	for _, ic := range top {
		frame.Items = append(frame.Items, ic.Item)
		frame.Values = append(frame.Values, ic.Count)
	}
	return func(e *transport.Encoder) error { return e.EncodeDomainAnswer(frame) }
}

// durableRung journals the sample through a DurableCollector with
// rtf-serve's default options (no fsync, no group commit), then cuts a
// snapshot: the durable SendBatch per report — validate, journal and
// apply, reported whole like the in-memory rung beside it, because a
// difference of two noisy timings can come out negative — the WAL
// bytes it writes, and the snapshot's duration.
func durableRung(s *spec, scale float64, scratchDir string, batches [][]transport.Msg, n int, m map[string]float64) error {
	meta := persist.Meta{Mechanism: mechanism, D: s.d, K: sparsityK, Eps: epsilon, Scale: scale}
	dir, err := os.MkdirTemp(scratchDir, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dc, _, err := transport.OpenDurable(protocol.NewSharded(s.d, scale, 2), dir, meta, transport.DurableOptions{})
	if err != nil {
		return err
	}
	// Each repetition appends the sample to the same journal; the WAL
	// bytes are read after the first so they count one copy.
	d, err := bestOf(func() error {
		for _, ms := range batches {
			if err := dc.SendBatch(0, ms); err != nil {
				return err
			}
		}
		if _, seen := m["persist.wal_bytes_per_report"]; seen {
			return nil
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			return err
		}
		var walBytes int64
		for _, seg := range segs {
			fi, err := os.Stat(seg)
			if err != nil {
				return err
			}
			walBytes += fi.Size()
		}
		m["persist.wal_bytes_per_report"] = float64(walBytes) / float64(n)
		return nil
	})
	if err != nil {
		return err
	}
	m["persist.journal_ns_per_report"] = perUnit(d, n, time.Nanosecond)
	start := time.Now()
	if _, err := dc.Snapshot(); err != nil {
		return err
	}
	m["persist.snapshot_ms"] = perUnit(time.Since(start), 1, time.Millisecond)
	return dc.Close()
}

// recoverRung times OpenDurable on the run's own data directory, after
// the serving process has exited: what a restart pays before it can
// listen.
func recoverRung(s *spec, dir string) (float64, error) {
	mech, _ := ldp.Lookup(mechanism)
	scale, err := mech.EstimatorScale(ldp.Params{D: s.d, K: sparsityK, Eps: epsilon})
	if err != nil {
		return 0, err
	}
	meta := persist.Meta{Mechanism: mechanism, D: s.d, K: sparsityK, Eps: epsilon, Scale: scale}
	start := time.Now()
	dc, _, err := transport.OpenDurable(protocol.NewSharded(s.d, scale, 2), dir, meta, transport.DurableOptions{})
	if err != nil {
		return 0, err
	}
	ms := perUnit(time.Since(start), 1, time.Millisecond)
	return ms, dc.Close()
}
