package main

import (
	"fmt"
	"time"

	"rtf/internal/transport"
	"rtf/ldp"
)

// The live rungs need real sockets: they run against the spawned
// topology after the timed rounds of a traced run, before the final
// raw-sums check. Every batch they send is folded into the reference
// like any other, so the closing checks still hold.

const liveRungSamples = 30

// extraFrame returns the i-th batch available for resending after the
// rounds: a corpus batch, or one of the live fleet's last-round
// batches (duplicates are harmless — the reference sees them too).
func (r *runner) extraFrame(i int) ([]byte, error) {
	if r.s.live {
		return r.encodeFrame(r.liveMsgs[i%len(r.liveMsgs)])
	}
	return r.pop.frames[i%len(r.pop.frames)], nil
}

func (r *runner) ingestExtra(i int) error {
	if r.s.live {
		return r.ingestMsgs(r.liveMsgs[i%len(r.liveMsgs)])
	}
	return r.ingestReps(r.pop.reps[i%len(r.pop.reps)])
}

// ackedBatch sends one batch alone (depth 1), waits for its ack and
// returns the round trip.
func (r *runner) ackedBatch(i int) (time.Duration, error) {
	frame, err := r.extraFrame(i)
	if err != nil {
		return 0, err
	}
	r.acks = r.acks[:0]
	start := time.Now()
	if err := r.send(frame); err != nil {
		return 0, err
	}
	if err := r.drainAcks(); err != nil {
		return 0, err
	}
	dur := time.Since(start)
	r.attempted++
	if !r.acks[0] {
		r.fail("depth-1 batch %d was shed", i)
		return dur, nil
	}
	return dur, r.ingestExtra(i)
}

// liveRungs measures transport.batch_rtt_us everywhere and the
// cluster.* differences on the gateway workload.
func (r *runner) liveRungs(m map[string]float64) error {
	if err := r.sess.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return err
	}
	var rtts []float64
	for i := 0; i < 2*liveRungSamples; i++ {
		d, err := r.ackedBatch(i)
		if err != nil {
			return fmt.Errorf("batch rtt: %w", err)
		}
		rtts = append(rtts, float64(d)/float64(time.Microsecond))
	}
	m["transport.batch_rtt_us"] = median(rtts)
	if r.s.gateway {
		return r.gatewayRungs(m)
	}
	return nil
}

// gatewayRungs prices the gateway by difference: the same write burst
// and the same cold PointItem, alternately straight at backend 0 and
// through the gateway. Writing at a backend directly is sound — the
// gateway answers from the sum of its backends' raw counters, whoever
// put them there — but the gateway's answer cache cannot see it, so
// every direct write is followed by a write through the gateway (which
// advances its ingest epoch) before the next verified read. The write
// difference can be negative: the gateway splits a burst over two
// backends that apply in parallel, a lone backend does it all.
func (r *runner) gatewayRungs(m map[string]float64) error {
	gw := r.sess
	direct, err := dial(r.topo.procs[0].addr, true)
	if err != nil {
		return err
	}
	defer direct.conn.Close()
	defer func() { r.sess = gw }()
	if err := direct.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return err
	}
	point := wireQuery(ldp.PointItemQuery(0, r.s.d))
	// Index 0 is the direct path, 1 the gateway path.
	paths := [2]*session{direct, gw}
	var rates, coldUs [2][]float64
	for i := 0; i < liveRungSamples; i++ {
		for p, sess := range paths {
			r.sess = sess
			reports, _, dur, err := r.writeBurst(i)
			if err != nil {
				return fmt.Errorf("gateway rung write burst: %w", err)
			}
			rates[p] = append(rates[p], float64(reports)/dur.Seconds())
			if err := r.feedOracle(i); err != nil {
				return err
			}
		}
	}
	for i := 0; i < liveRungSamples; i++ {
		for p, sess := range paths {
			r.sess = sess
			if _, err := r.ackedBatch(i); err != nil {
				return err
			}
			// Through the gateway the answer is also checked; a lone
			// backend's is partial.
			r.answers = r.answers[:0]
			d, err := r.timed(point)
			if err == nil && sess == gw {
				err = r.verify(point, r.answers[0])
			}
			if err != nil {
				return err
			}
			coldUs[p] = append(coldUs[p], float64(d)/float64(time.Microsecond))
		}
	}
	m["cluster.forward_ns_per_report"] = 1e9/fastTail(rates[1], true) - 1e9/fastTail(rates[0], true)
	m["cluster.gather_us"] = median(coldUs[1]) - median(coldUs[0])
	return nil
}

func (r *runner) ingestMsgs(ms []transport.Msg) error {
	for _, m := range ms {
		if err := r.or.ingest(rep{user: int32(m.User), j: int32(m.J), order: int8(m.Order), bit: m.Bit}); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) ingestReps(rs []rep) error {
	for _, rp := range rs {
		if err := r.or.ingest(rp); err != nil {
			return err
		}
	}
	return nil
}
