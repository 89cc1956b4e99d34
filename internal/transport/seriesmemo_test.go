package transport

import (
	"bytes"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// The live Boolean state's prefix-series memo (seriesmemo.go): every
// Point, Series and Window answer it gives, cold or warm, is the answer
// a fresh AnswerQuery on the same cut gives and the serial
// protocol.Server's, compared through math.Float64bits; a run, a
// restore or any other stamp bump makes the next read miss.

// memoAnswer is r's answer to m, with the memo flags Answer reported.
func memoAnswer(t *testing.T, r Reader, m Msg) (vals []float64, memo, hit bool) {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	memo, hit, err := r.Answer(m, enc, &AnswerScratch{})
	if err == nil {
		err = enc.Flush()
	}
	if err != nil {
		t.Fatalf("answer to %+v: %v", m, err)
	}
	a, err := NewDecoder(&buf).ReadAnswer()
	if err != nil {
		t.Fatalf("decoding the answer to %+v: %v", m, err)
	}
	if a.Kind != m.Kind || a.L != m.L || a.R != m.R {
		t.Fatalf("answer to %+v echoes kind %v [%d..%d]", m, a.Kind, a.L, a.R)
	}
	return a.Values, memo, hit
}

// sameBits fails unless got and want are equal float for float, bit for
// bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// checkMemoAnswer answers m through r and compares it with a fresh
// AnswerQuery on acc and on the serial server, and the memo flags with
// wantHit.
func checkMemoAnswer(t *testing.T, r Reader, acc *protocol.Sharded, srv *protocol.Server, m Msg, wantHit bool) {
	t.Helper()
	if hit := checkMemoValues(t, r, acc, srv, m); hit != wantHit {
		t.Fatalf("%+v: hit=%v, want %v", m, hit, wantHit)
	}
}

// checkMemoValues is checkMemoAnswer without the hit expectation: it
// returns whether the memo was warm.
func checkMemoValues(t *testing.T, r Reader, acc *protocol.Sharded, srv *protocol.Server, m Msg) (hit bool) {
	t.Helper()
	got, memo, hit := memoAnswer(t, r, m)
	if !memo {
		t.Fatalf("%+v: not answered through the memo", m)
	}
	fresh, err := AnswerQuery(acc, m)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := AnswerQuery(srv, m)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "memo vs fresh AnswerQuery", got, fresh.Values)
	sameBits(t, "memo vs serial server", got, serial.Values)
	return hit
}

// memoReads is every read shape the memo serves at horizon d.
func memoReads(d int) []Msg {
	return []Msg{
		QueryV2(QuerySeries, 0, 0),
		QueryV2(QueryPoint, 1, 0), QueryV2(QueryPoint, d/2+1, 0), QueryV2(QueryPoint, d, 0),
		QueryV2(QueryWindow, 1, d), QueryV2(QueryWindow, 3, d/2), QueryV2(QueryWindow, d, d),
	}
}

// boolCollectors are the two live Boolean collectors — the mode's state
// and one over a caller's accumulator — with the accumulator behind each.
func boolCollectors(d int, scale float64) map[string]func() (*Collector, *protocol.Sharded) {
	return map[string]func() (*Collector, *protocol.Sharded){
		"NewCollector": func() (*Collector, *protocol.Sharded) {
			c := NewCollector(BoolMode(d, scale), 2)
			return c, c.st.(boolState).acc
		},
		"NewShardedCollector": func() (*Collector, *protocol.Sharded) {
			acc := protocol.NewSharded(d, scale, 2)
			return NewShardedCollector(acc), acc
		},
	}
}

// sendBoth sends ms to the collector (on shard) and to the serial server.
func sendBoth(t *testing.T, c *Collector, shard int, srv *protocol.Server, ms []Msg) {
	t.Helper()
	if err := c.SendBatch(shard, ms); err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Type == MsgHello {
			srv.Register(m.Order)
		} else {
			srv.Ingest(protocol.Report{User: m.User, Order: m.Order, J: m.J, Bit: m.Bit})
		}
	}
}

// TestSeriesMemoMatchesFreshAndSerial walks the memo through its states
// on both live collectors: a cold Point misses and does not fill, a
// Series fills, every later read hits, and a run between reads makes
// the next one miss — with every answer bit for bit a fresh one's and
// the serial server's. A Change is not memo-backed.
func TestSeriesMemoMatchesFreshAndSerial(t *testing.T) {
	const d, scale = 64, 1.7
	for name, build := range boolCollectors(d, scale) {
		t.Run(name, func(t *testing.T) {
			c, acc := build()
			srv := protocol.NewServer(d, scale)
			ms := genMsgs(d, 400)
			sendBoth(t, c, 0, srv, ms[:len(ms)/2])
			sendBoth(t, c, 1, srv, ms[len(ms)/2:])

			point := QueryV2(QueryPoint, d/4+3, 0)
			checkMemoAnswer(t, c, acc, srv, point, false)
			checkMemoAnswer(t, c, acc, srv, point, false) // a cold point does not fill
			for i, m := range memoReads(d) {
				checkMemoAnswer(t, c, acc, srv, m, i > 0) // the Series fills
			}
			for _, m := range memoReads(d) {
				checkMemoAnswer(t, c, acc, srv, m, true)
			}
			if _, memo, _ := memoAnswer(t, c, QueryV2(QueryChange, 3, d-1)); memo {
				t.Error("a change query reported a memo")
			}

			// Each run bumps the stamp: the next read misses, whatever its shape.
			for i, m := range memoReads(d) {
				sendBoth(t, c, i%2, srv, []Msg{FromReport(protocol.Report{User: 1000 + i, Order: 0, J: 1 + i, Bit: 1})})
				checkMemoAnswer(t, c, acc, srv, m, false)
				if m.Kind != QueryPoint {
					checkMemoAnswer(t, c, acc, srv, point, true)
				}
			}
		})
	}
}

// TestSeriesMemoRestoreMisses: restoring a snapshot into a state whose
// memo is warm is a locked run, so the next read misses and answers the
// restored counters — the restored state's Snapshot server's answer.
func TestSeriesMemoRestoreMisses(t *testing.T) {
	const d, scale = 32, 2.5
	src, srcAcc := boolCollectors(d, scale)["NewCollector"]()
	if err := src.SendBatch(0, genMsgs(d, 200)); err != nil {
		t.Fatal(err)
	}
	c, acc := boolCollectors(d, scale)["NewCollector"]()
	empty := protocol.NewServer(d, scale)
	series := QueryV2(QuerySeries, 0, 0)
	checkMemoAnswer(t, c, acc, empty, series, false)
	checkMemoAnswer(t, c, acc, empty, series, true)

	if err := c.st.RestoreState(srcAcc.MarshalState()); err != nil {
		t.Fatal(err)
	}
	snap := acc.Snapshot()
	checkMemoAnswer(t, c, acc, snap, series, false)
	for _, m := range memoReads(d) {
		checkMemoAnswer(t, c, acc, snap, m, true)
	}
	checkMemoAnswer(t, c, acc, srcAcc.Snapshot(), series, true)
}

// TestSeriesMemoUnderConcurrentIngest: writers apply runs on two counter
// shards while readers ask Series, Window and Point through the memo.
// Every run adds +1 to I(0,1) and to I(1,1), so in any cut â[1] = â[2];
// an answer that splits a run, or a reader that sees â[1] go down,
// fails. At quiescence every answer, cold then warm, equals a fresh one
// and the serial server's.
func TestSeriesMemoUnderConcurrentIngest(t *testing.T) {
	const d, scale, shards, writers, runs = 16, 1.5, 2, 4, 200
	c, acc := boolCollectors(d, scale)["NewCollector"]()
	srv := protocol.NewServer(d, scale)
	g := rng.New(26, 2)
	work := make([][][]Rec, writers)
	for w := range work {
		for i := 0; i < runs; i++ {
			run := []Rec{{User: w, Order: 0, J: 1, Bit: 1}, {User: w, Order: 1, J: 1, Bit: 1}}
			for j := 0; j < 8; j++ {
				h := 2 + g.IntN(3)
				run = append(run, Rec{User: w, Order: uint8(h), J: uint32(1 + g.IntN(d>>uint(h))), Bit: int8(1 - 2*g.IntN(2))})
			}
			work[w] = append(work[w], run)
			for _, r := range run {
				srv.Ingest(protocol.Report{User: r.User, Order: int(r.Order), J: int(r.J), Bit: r.Bit})
			}
		}
	}

	var failed atomic.Value
	var mu sync.Mutex
	last := map[int]float64{}
	reads := []Msg{QueryV2(QuerySeries, 0, 0), QueryV2(QueryWindow, 1, 2), QueryV2(QueryPoint, 1, 0)}
	var calls atomic.Int64
	applyUnderReaders(c.st, work, shards, 2, func(i int) {
		calls.Add(1)
		m := reads[i%len(reads)]
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if _, _, err := c.Answer(m, enc, &AnswerScratch{}); err != nil || enc.Flush() != nil {
			failed.Store("answer failed")
			return
		}
		a, err := NewDecoder(&buf).ReadAnswer()
		if err != nil {
			failed.Store(err.Error())
			return
		}
		if m.Kind != QueryPoint && a.Values[0] != a.Values[1] {
			failed.Store("a read split a run: â[1] != â[2]")
		}
		mu.Lock()
		if a.Values[0] < last[i%2] {
			failed.Store("a reader saw â[1] decrease")
		}
		last[i%2] = a.Values[0]
		mu.Unlock()
	})
	if msg := failed.Load(); msg != nil {
		t.Fatal(msg)
	}
	if calls.Load() == 0 {
		t.Fatal("the readers never ran")
	}
	// The last reader may have filled after the last run: warm or not,
	// the entry must be exact.
	checkMemoValues(t, c, acc, srv, QueryV2(QuerySeries, 0, 0))
	for _, m := range memoReads(d) {
		checkMemoAnswer(t, c, acc, srv, m, true)
	}
}

// TestSeriesMemoAllocFree: once the memo's buffers exist, a cold Series
// or Window answer (a fill) and every warm answer allocate nothing.
func TestSeriesMemoAllocFree(t *testing.T) {
	const d = 256
	c, acc := boolCollectors(d, 1.5)["NewCollector"]()
	if err := c.SendBatch(0, genMsgs(d, 100)); err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(io.Discard)
	var sc AnswerScratch
	answer := func(m Msg) {
		if _, _, err := c.Answer(m, enc, &sc); err != nil {
			t.Fatal(err)
		}
	}
	answer(QueryV2(QuerySeries, 0, 0))
	one := dyadic.Interval{Order: 0, Index: 1}
	for _, m := range memoReads(d) {
		if m.Kind != QueryPoint {
			if n := testing.AllocsPerRun(50, func() { acc.IngestSum(0, one, 0); answer(m) }); n != 0 {
				t.Errorf("cold %+v: %v allocs per answer", m, n)
			}
		}
		if n := testing.AllocsPerRun(50, func() { answer(m) }); n != 0 {
			t.Errorf("warm %+v: %v allocs per answer", m, n)
		}
	}
}
