package main

import (
	"encoding/json"
	"os"
	"time"
)

// Spans are recorded from the harness, around its own calls into each
// layer; nothing inside the serving processes is instrumented. A span
// names its parent, spans of one round share the round id, and
// everything stays in memory until the run ends.

// Span names. The harness.* spans are bookkeeping the system under
// test never sees (feeding and consulting the reference engine); they
// are subtracted from the round time before shares are computed.
const (
	spanRound      = "round"
	spanWriteBurst = "write_burst"
	spanRandomize  = "randomize"
	spanEncode     = "encode"
	spanSend       = "send"
	spanAwaitAcks  = "await_acks"
	spanReadBurst  = "read_burst"
	spanOracle     = "harness.oracle"
	spanVerify     = "harness.verify"
)

// traceFileRounds caps how many traced rounds are written to the trace
// file; the share aggregates always cover every traced round.
const traceFileRounds = 256

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Round  int    `json:"round"`
}

// tracer records nested spans on one goroutine. While off, begin and
// end cost one branch, so untraced rounds run the same code.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	stack  []int
	round  int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open span and returns its id
// (-1 while off).
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Round: t.round, Start: int64(time.Since(t.origin))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost-first.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per span, its duration minus the part of it its
// direct children cover. Children of one span never overlap (one
// goroutine, strictly nested), so that part is the sum of their
// durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanShares returns each span name's self time as a share of the
// traced rounds' wall time, net of the harness.* bookkeeping spans.
func spanShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := make(map[string]int64)
	var wall int64
	for i, s := range spans {
		byName[s.Name] += self[i]
		if s.Name == spanRound {
			wall += s.End - s.Start
		}
	}
	wall -= byName[spanOracle] + byName[spanVerify]
	shares := make(map[string]float64, len(byName))
	if wall <= 0 {
		return shares
	}
	for name, ns := range byName {
		shares[name] = float64(ns) / float64(wall)
	}
	return shares
}

// writeTrace writes the spans of the first traceFileRounds traced
// rounds as JSON.
func writeTrace(path, workload string, seed int64, spans []span) error {
	rounds := 0
	last := -1
	cut := len(spans)
	for i, s := range spans {
		if s.Round != last {
			last = s.Round
			rounds++
			if rounds > traceFileRounds {
				cut = i
				break
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans[:cut]})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
