package transport

import (
	"net"
	"testing"
	"time"

	"rtf/internal/obs"
)

// The flush discipline is pinned on every front by
// cluster.TestFlushDiscipline. The two orderings below need a hook
// between two runs of one connection, which no real front has, so they
// run the same frame loop over a session that has one.

// hookSession is a store session that calls before(i) ahead of applying
// its i-th run.
type hookSession struct {
	storeSession
	runs   int
	before func(run int)
}

func (s *hookSession) Apply(run []Rec, wire []byte) error {
	s.before(s.runs)
	s.runs++
	return s.storeSession.Apply(run, wire)
}

// serveHooked serves a Boolean collector through hookSessions.
func serveHooked(t *testing.T, before func(run int)) (srv *Server, conn net.Conn, enc *Encoder, dec *Decoder) {
	t.Helper()
	col := NewCollector(BoolMode(16, 2), 1)
	srv = NewServer(col.Mode(), "boolean", func(id int) Session {
		return &hookSession{storeSession: storeSession{col, id}, before: before}
	}, nil)
	srv.Metrics = NewServerMetrics(obs.NewRegistry())
	srv.Queue = NewIngestQueue(1)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	conn, enc, dec = dialIngest(t, (<-ready).String())
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return srv, conn, enc, dec
}

// TestShedAckKeepsItsPlace: a frame shed right behind one that applied
// is acknowledged behind it, in the same flush. The queue slot is taken
// between the two by an acquirer parked on it while the first frame
// holds it — a channel hands a released slot straight to a parked
// sender, so the second frame finds the queue full.
func TestShedAckKeepsItsPlace(t *testing.T) {
	var srv *Server
	taken := make(chan struct{})
	srv, _, enc, dec := serveHooked(t, func(run int) {
		if run == 0 {
			go func() {
				srv.Queue.Acquire()
				close(taken)
			}()
			time.Sleep(50 * time.Millisecond) // let it park
		}
	})
	for u := 0; u < 2; u++ {
		if err := enc.EncodeAckedBatch([]Msg{Hello(u, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false} {
		if got, err := dec.ReadBatchAck(); err != nil || got != want {
			t.Fatalf("ack %d: applied=%v (%v), want %v", i, got, err, want)
		}
	}
	<-taken
	srv.Queue.Release()
	if acked, flushes := srv.Metrics.AckedBatches.Value(), srv.Metrics.AckFlushes.Value(); acked != 2 || flushes != 1 {
		t.Fatalf("%d acked batches left in %d flushes, want 2 in 1", acked, flushes)
	}
}

// TestAnswerLeavesBeforeNextRun: in a legacy mixed batch the answer to a
// read is on the wire before the run behind it is applied — the second
// run here is not applied until the client has the answer in hand.
func TestAnswerLeavesBeforeNextRun(t *testing.T) {
	answered := make(chan struct{})
	_, _, enc, dec := serveHooked(t, func(run int) {
		if run == 1 {
			select {
			case <-answered:
			case <-time.After(5 * time.Second):
				t.Error("second run reached Apply before the answer ahead of it reached the client")
			}
		}
	})
	if err := enc.EncodeBatch([]Msg{Hello(1, 0), pointQ(3), Hello(2, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if a, err := dec.ReadAnswer(); err != nil || a.Kind != QueryPoint || a.L != 3 {
		t.Fatalf("answer: %+v, %v", a, err)
	}
	close(answered)
	// A second read fences the second run.
	if err := enc.Encode(pointQ(4)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if a, err := dec.ReadAnswer(); err != nil || a.L != 4 {
		t.Fatalf("second answer: %+v, %v", a, err)
	}
}
