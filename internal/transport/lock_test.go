package transport

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// This file holds the states of all three modes to the accumulators'
// lock discipline (protocol.DomainSharded) as the serving core meets it:
// concurrent runs — two writers on one counter shard — under readers
// answering every read frame leave the state exactly a serial server's;
// every fold sees a run whole or not at all; a sums export blocked in
// Write holds no lock; and a gathered state has no writer.

// lockReads is every read frame of the mode at horizon d: each query
// kind and the raw-sums request, full and scoped.
func lockReads(mode Mode, d int) []Msg {
	var reads []Msg
	if modeRows(mode) == 0 {
		reads = []Msg{QueryV2(QueryPoint, d/2, 0), QueryV2(QueryChange, 3, d-1), QueryV2(QuerySeries, 0, 0), QueryV2(QueryWindow, 2, d/2)}
	} else {
		items := mode.(*domainMode).enc.M
		reads = []Msg{
			DomainQuery(QueryPointItem, items-1, d/2, 0, 0), DomainQuery(QueryPointItem, 0, d, 0, 0),
			DomainQuery(QuerySeriesItem, 1, 0, 0, 0), DomainQuery(QueryTopK, 0, d-1, 0, 3),
		}
	}
	return append(reads, mode.SumsRequest(), scopedRequest(mode, Scope{2, d - 3}))
}

// serialRef is a serial server of the mode fed record by record through
// its per-report entry points — the reference a concurrently written
// state must equal once its writers are done.
type serialRef struct {
	apply  func(r Rec)
	answer func(t *testing.T, m Msg) []byte
	state  func() []byte
}

func newSerialRef(mode Mode, d int, scale float64) serialRef {
	report := func(r Rec) protocol.Report {
		return protocol.Report{User: r.User, Order: int(r.Order), J: int(r.J), Bit: r.Bit}
	}
	var ds *hh.DomainServer
	var st State
	switch p := mode.(type) {
	case boolMode:
		srv := protocol.NewServer(d, scale)
		return serialRef{
			apply: func(r Rec) {
				if r.Bit == 0 {
					srv.Register(int(r.Order))
				} else {
					srv.Ingest(report(r))
				}
			},
			answer: func(t *testing.T, m Msg) []byte {
				var buf bytes.Buffer
				enc := NewEncoder(&buf)
				var err error
				if m.Type == MsgQueryV2 {
					var a AnswerFrame
					if a, err = AnswerQuery(srv, m); err == nil {
						err = enc.EncodeAnswer(a)
					}
				} else {
					perOrder := make([]int64, dyadic.NumOrders(d))
					for h := range perOrder {
						perOrder[h] = int64(srv.UsersAtOrder(h))
					}
					full := append(append([]int64{int64(srv.Users())}, perOrder...), srv.IntervalSums()...)
					acc, _ := protocol.ShardedOver(d, scale, 0, 0, full)
					f := RawSums{D: d, Scale: scale, Scope: Scope{m.L, m.R}}
					f.Counters = make([]int64, f.stride())
					acc.FoldInto(acc.Columns(m.L, m.R), f.Counters)
					err = enc.EncodeSums(SumsFrame(f))
				}
				if err == nil {
					err = enc.Flush()
				}
				if err != nil {
					t.Fatalf("serial answer to %+v: %v", m, err)
				}
				return buf.Bytes()
			},
			state: srv.MarshalState,
		}
	case *domainMode:
		ds = hh.NewDomainServer(d, p.m, scale, 1)
		st = p.state(ds)
	}
	return serialRef{
		apply: func(r Rec) {
			if r.Bit == 0 {
				ds.Register(0, int(r.Item), int(r.Order))
			} else {
				ds.Ingest(0, int(r.Item), report(r))
				ds.AdvanceVersion(0)
			}
		},
		answer: func(t *testing.T, m Msg) []byte {
			b, err := answerBytes(st, m)
			if err != nil {
				t.Fatalf("serial answer to %+v: %v", m, err)
			}
			return b
		},
		state: ds.MarshalState,
	}
}

// lockRecRuns builds writers × runs random runs of size valid records of
// the mode.
func lockRecRuns(g *rng.RNG, mode Mode, d, writers, runs, size int) [][][]Rec {
	rows := max(modeRows(mode), 1)
	out := make([][][]Rec, writers)
	user := 0
	for w := range out {
		for i := 0; i < runs; i++ {
			run := make([]Rec, size)
			for j := range run {
				h := g.IntN(dyadic.NumOrders(d))
				run[j] = Rec{User: user, Item: uint32(g.IntN(rows)), Order: uint8(h)}
				if g.IntN(8) > 0 {
					run[j].J, run[j].Bit = uint32(1+g.IntN(d>>uint(h))), int8(1-2*g.IntN(2))
				}
				user++
			}
			out[w] = append(out[w], run)
		}
	}
	return out
}

// applyUnderReaders applies every writer's runs to st — writer w on
// counter shard w mod shards — while readers goroutines call read in a
// loop, and returns once all runs landed and the readers stopped.
func applyUnderReaders(st State, runs [][][]Rec, shards, readers int, read func(i int)) {
	var writers, reading sync.WaitGroup
	var stop atomic.Bool
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			for i := r; !stop.Load(); i += readers {
				read(i)
			}
		}(r)
	}
	for w := range runs {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for _, run := range runs[w] {
				st.Apply(w%shards, run)
			}
		}(w)
	}
	writers.Wait()
	stop.Store(true)
	reading.Wait()
}

// TestStateRunsUnderReadersMatchSerial: three writers over two counter
// shards apply runs while readers answer every read frame of the mode —
// the live sums export included — and call Sums, MarshalState and
// Users; at quiescence every answer, the raw sums and the snapshot bytes
// equal a serial server's fed the same records.
func TestStateRunsUnderReadersMatchSerial(t *testing.T) {
	const d, scale, shards, writers = 32, 1.5, 2, 3
	for _, mode := range scopeModes(d, scale) {
		t.Run(mode.Name(), func(t *testing.T) {
			runs := lockRecRuns(rng.New(9, uint64(modeRows(mode))), mode, d, writers, 50, 64)
			reads := lockReads(mode, d)
			for _, m := range reads {
				if err := mode.ValidateRead(m); err != nil {
					t.Fatalf("read %+v: %v", m, err)
				}
			}
			st := mode.NewState(shards)
			var failed atomic.Value
			applyUnderReaders(st, runs, shards, 2, func(i int) {
				if _, err := answerBytes(st, reads[i%len(reads)]); err != nil {
					failed.Store(err.Error())
				}
				_ = st.Sums(Scope{})
				_ = st.Sums(Scope{1, 1 + i%d})
				_ = st.MarshalState()
				_ = st.Users()
			})
			if msg := failed.Load(); msg != nil {
				t.Fatalf("a read under writers failed: %v", msg)
			}

			ref := newSerialRef(mode, d, scale)
			for _, wr := range runs {
				for _, run := range wr {
					for _, r := range run {
						ref.apply(r)
					}
				}
			}
			for _, m := range reads {
				got, err := answerBytes(st, m)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref.answer(t, m)) {
					t.Errorf("answer to %+v differs from the serial server's", m)
				}
			}
			if !bytes.Equal(st.MarshalState(), ref.state()) {
				t.Error("MarshalState differs from the serial server's")
			}
		})
	}
}

// TestStateFoldsSeeRunsWhole: every run adds +1 to interval I(0,1) of
// the first row and, after filler elsewhere, −1 to I(0,2) of the last,
// on every shard; every concurrent fold — Sums, and MarshalState restored
// into a fresh state — sees the two cancel exactly. (The row-streamed
// live sums export is the one read that is not a cut, and is not asked.)
func TestStateFoldsSeeRunsWhole(t *testing.T) {
	const d, scale, shards, writers, nruns = 16, 1.5, 2, 4, 300
	tree := dyadic.NewTree(d)
	a, b := tree.FlatIndex(dyadic.Interval{Order: 0, Index: 1}), tree.FlatIndex(dyadic.Interval{Order: 0, Index: 2})
	for _, mode := range scopeModes(d, scale) {
		t.Run(mode.Name(), func(t *testing.T) {
			rows := max(modeRows(mode), 1)
			run := []Rec{{Order: 0, J: 1, Bit: 1}}
			for j := 0; j < 64; j++ {
				run = append(run, Rec{User: j, Item: uint32(j % rows), Order: uint8(1 + j%3), J: 1, Bit: int8(1 - 2*(j%2))})
			}
			run = append(run, Rec{Item: uint32(rows - 1), Order: 0, J: 2, Bit: -1})
			runs := make([][][]Rec, writers)
			for w := range runs {
				for i := 0; i < nruns; i++ {
					runs[w] = append(runs[w], run)
				}
			}
			st := mode.NewState(shards)
			var torn atomic.Int64
			applyUnderReaders(st, runs, shards, 2, func(i int) {
				f := st.Sums(Scope{})
				if i%2 == 1 {
					fresh := mode.NewState(1)
					if err := fresh.RestoreState(st.MarshalState()); err != nil {
						panic(err)
					}
					f = fresh.Sums(Scope{})
				}
				var ab int64
				for x := 0; x < rows; x++ {
					_, _, sums := f.Row(x)
					ab += sums[a] + sums[b]
				}
				if ab != 0 {
					torn.Add(1)
				}
			})
			if n := torn.Load(); n > 0 {
				t.Fatalf("%d folds saw a run's +1 without its −1", n)
			}
		})
	}
}

// blockingWriter blocks its first Write until release is closed,
// closing blocked when it starts to.
type blockingWriter struct {
	blocked, release chan struct{}
	once             sync.Once
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.blocked) })
	<-w.release
	return len(p), nil
}

// TestSumsExportHoldsNoLockAcrossWrite: a sums export whose connection
// stops reading mid-frame — its Write blocks — must not keep a run on
// either counter shard from completing.
func TestSumsExportHoldsNoLockAcrossWrite(t *testing.T) {
	const d, scale = 1024, 1.5 // full frames of several KiB: past the encoder's buffer
	for _, mode := range scopeModes(d, scale) {
		t.Run(mode.Name(), func(t *testing.T) {
			st := mode.NewState(2)
			runs := lockRecRuns(rng.New(3, 4), mode, d, 1, 2, 200)
			st.Apply(0, runs[0][0])
			w := &blockingWriter{blocked: make(chan struct{}), release: make(chan struct{})}
			exported := make(chan error, 1)
			go func() {
				enc := NewEncoder(w)
				var sc AnswerScratch
				_, _, err := st.Answer(mode.SumsRequest(), enc, &sc)
				if err == nil {
					err = enc.Flush()
				}
				exported <- err
			}()
			<-w.blocked
			applied := make(chan struct{})
			go func() {
				st.Apply(0, runs[0][1])
				st.Apply(1, runs[0][1])
				close(applied)
			}()
			select {
			case <-applied:
			case <-time.After(10 * time.Second):
				t.Fatal("a run waited on a sums export blocked in Write")
			}
			close(w.release)
			if err := <-exported; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGatheredStateHasNoWriter: the state a mode folds gathered frames
// into is built over the adopted matrix — no writer, so no lock for its
// readers to share — and answers every read while refusing a run.
func TestGatheredStateHasNoWriter(t *testing.T) {
	const d, scale = 32, 1.5
	for _, mode := range scopeModes(d, scale) {
		t.Run(mode.Name(), func(t *testing.T) {
			live := liveState(rng.New(1, 2), d, mode, 400)
			folded, err := mode.Fold([]RawSums{live.Sums(Scope{})})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, m := range lockReads(mode, d) {
						got, err := answerBytes(folded, m)
						want, _ := answerBytes(live, m)
						if err != nil || !bytes.Equal(got, want) {
							t.Errorf("gathered answer to %+v: %v, or differs from the live state's", m, err)
						}
					}
				}()
			}
			wg.Wait()
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "read-only") {
					t.Errorf("Apply on a gathered state: recovered %q, want a read-only refusal", r)
				}
			}()
			folded.Apply(0, []Rec{{Order: 0, J: 1, Bit: 1}})
		})
	}
}
