package protocol

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/rng"
)

// This file holds the accumulator, as a domain matrix and as its
// one-row Boolean view, to the lock discipline written on DomainSharded: runs from concurrent writers — two of them on one shard —
// against readers calling every read method leave the counters exactly
// a serial server's, with one version step per run; every read sees a
// run whole or not at all; and a state over adopted counters has no lock.

// lockRec is one record of a writer's run: a hello (registering order
// r.Order) or a report, for row item.
type lockRec struct {
	item  int
	hello bool
	r     Report
}

// lockRuns builds writers × runs runs of size records over rows items.
func lockRuns(g *rng.RNG, d, rows, writers, runs, size int) [][][]lockRec {
	out := make([][][]lockRec, writers)
	user := 0
	for w := range out {
		out[w] = make([][]lockRec, runs)
		for i := range out[w] {
			run := make([]lockRec, size)
			for j := range run {
				h := g.IntN(dyadic.NumOrders(d))
				run[j] = lockRec{item: g.IntN(rows), hello: g.IntN(8) == 0, r: Report{User: user, Order: h}}
				if !run[j].hello {
					run[j].r.J, run[j].r.Bit = 1+g.IntN(d>>uint(h)), int8(1-2*g.IntN(2))
				}
				user++
			}
			out[w][i] = run
		}
	}
	return out
}

// hammer runs every writer's runs on shard w mod shards, through apply,
// while readers goroutines call read in a loop; it returns once every
// run has landed and every reader has stopped.
func hammer(runs [][][]lockRec, shards, readers int, apply func(shard int, run []lockRec), read func(i int)) {
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
				apply(w%shards, run)
			}
		}(w)
	}
	writers.Wait()
	stop.Store(true)
	reading.Wait()
}

// TestShardedRunsUnderReadersMatchSerial: four writers on three shards
// (two share shard 0) apply runs while readers call every read method;
// at quiescence every estimate, the raw fold and the snapshot bytes equal
// a serial Server fed the same reports, and the version counts the runs.
func TestShardedRunsUnderReadersMatchSerial(t *testing.T) {
	const d, shards, writers, nruns, size, scale = 32, 3, 4, 80, 50, 1.75
	runs := lockRuns(rng.New(5, 6), d, 1, writers, nruns, size)
	acc := NewSharded(d, scale, shards)
	cols := acc.Columns(3, 11)
	var lastVersion atomic.Uint64
	hammer(runs, shards, 2, func(shard int, run []lockRec) {
		w := acc.Lock(shard)
		defer w.Unlock()
		for _, rc := range run {
			if rc.hello {
				w.Register(0, rc.r.Order)
			} else {
				w.Ingest(0, rc.r)
			}
		}
	}, func(i int) {
		tt := 1 + i%d
		_ = acc.EstimateAt(tt)
		_ = acc.EstimateSeries()
		_ = acc.EstimateSeriesTo(tt)
		_ = acc.EstimateChange(1+i%(d/2), d/2+tt/2)
		_ = acc.Users()
		_, _, _ = acc.Fold()
		acc.FoldInto(cols, make([]int64, 1+dyadic.NumOrders(d)+len(cols)))
		_ = acc.MarshalState()
		_ = acc.Snapshot()
		if v := acc.Version(); v < lastVersion.Load() {
			panic("version went backwards")
		} else {
			lastVersion.Store(v)
		}
	})

	serial := NewServer(d, scale)
	for _, wr := range runs {
		for _, run := range wr {
			for _, rc := range run {
				if rc.hello {
					serial.Register(rc.r.Order)
				} else {
					serial.Ingest(rc.r)
				}
			}
		}
	}
	if got, want := acc.Version(), uint64(writers*nruns); got != want {
		t.Fatalf("version %d after %d runs, want one step per run", got, want)
	}
	if acc.Users() != serial.Users() {
		t.Fatalf("Users = %d, serial %d", acc.Users(), serial.Users())
	}
	for tt := 1; tt <= d; tt++ {
		if got, want := acc.EstimateAt(tt), serial.EstimateAt(tt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("EstimateAt(%d) = %v, serial %v", tt, got, want)
		}
		if got, want := acc.EstimateChange(tt, d), serial.EstimateChange(tt, d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("EstimateChange(%d, %d) = %v, serial %v", tt, d, got, want)
		}
	}
	if got, want := acc.EstimateSeries(), serial.EstimateSeries(); !slices.Equal(got, want) {
		t.Fatalf("EstimateSeries differs from serial")
	}
	users, perOrder, sums := acc.Fold()
	if int(users) != serial.Users() || !slices.Equal(sums, serial.IntervalSums()) {
		t.Fatal("Fold differs from the serial server's counters")
	}
	for h, c := range perOrder {
		if int(c) != serial.UsersAtOrder(h) {
			t.Fatalf("Fold perOrder[%d] = %d, serial %d", h, c, serial.UsersAtOrder(h))
		}
	}
	if !bytes.Equal(acc.MarshalState(), serial.MarshalState()) {
		t.Fatal("MarshalState differs from the serial server's")
	}
}

// TestDomainShardedRunsUnderReadersMatchSerial is the same over a domain
// matrix, against one serial Server per item.
func TestDomainShardedRunsUnderReadersMatchSerial(t *testing.T) {
	const d, m, shards, writers, nruns, size, scale = 32, 6, 3, 4, 60, 50, 2.5
	runs := lockRuns(rng.New(7, 8), d, m, writers, nruns, size)
	acc := NewDomainSharded(d, m, scale, shards)
	cols := acc.Columns(2, 9)
	hammer(runs, shards, 2, func(shard int, run []lockRec) {
		w := acc.Lock(shard)
		defer w.Unlock()
		for _, rc := range run {
			if rc.hello {
				w.Register(rc.item, rc.r.Order)
			} else {
				w.Ingest(rc.item, rc.r)
			}
		}
	}, func(i int) {
		tt, x := 1+i%d, i%m
		_ = acc.Users()
		_ = acc.UsersAt(x)
		_ = acc.EstimateAt(x, tt)
		_ = acc.EstimateAllAt(tt)
		_ = acc.EstimateSeries(x)
		_ = acc.EstimateSeriesTo(x, tt)
		_ = acc.EstimateAllSeries()
		acc.FoldRowsInto(1, m, cols, make([]int64, (m-1)*(1+dyadic.NumOrders(d)+len(cols))))
		acc.FoldInto(make([]int64, m*RawStride(d)))
		_ = acc.MarshalState()
	})

	serial := make([]*Server, m)
	for x := range serial {
		serial[x] = NewServer(d, scale)
	}
	for _, wr := range runs {
		for _, run := range wr {
			for _, rc := range run {
				if rc.hello {
					serial[rc.item].Register(rc.r.Order)
				} else {
					serial[rc.item].Ingest(rc.r)
				}
			}
		}
	}
	if got, want := acc.Version(), uint64(writers*nruns); got != want {
		t.Fatalf("version %d after %d runs, want one step per run", got, want)
	}
	all := acc.EstimateAllSeries()
	raw := make([]int64, m*RawStride(d))
	acc.FoldInto(raw)
	want := binary.AppendUvarint([]byte{stateVersion, stateKindDomain}, m)
	for x, srv := range serial {
		if acc.UsersAt(x) != srv.Users() {
			t.Fatalf("UsersAt(%d) = %d, serial %d", x, acc.UsersAt(x), srv.Users())
		}
		if !slices.Equal(all[x], srv.EstimateSeries()) {
			t.Fatalf("item %d: EstimateAllSeries differs from serial", x)
		}
		for tt := 1; tt <= d; tt++ {
			if got, want := acc.EstimateAt(x, tt), srv.EstimateAt(tt); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("EstimateAt(%d, %d) = %v, serial %v", x, tt, got, want)
			}
		}
		_, _, sums := SplitRaw(d, raw[x*RawStride(d):(x+1)*RawStride(d)])
		if !slices.Equal(sums, srv.IntervalSums()) {
			t.Fatalf("item %d: FoldInto sums differ from serial", x)
		}
		st := srv.MarshalState()
		want = append(binary.AppendUvarint(want, uint64(len(st))), st...)
	}
	if !bytes.Equal(acc.MarshalState(), want) {
		t.Fatal("MarshalState differs from the serial servers' states")
	}
}

// TestReadsSeeRunsWhole: every run adds +1 to interval I(0,1) and, after
// filler writes elsewhere, −1 to I(0,2), on every shard; every fold a
// concurrent reader takes — Fold, Snapshot, FoldInto, MarshalState — sees
// the two sums cancel exactly. A read that could see half a run would
// catch a +1 without its −1.
func TestReadsSeeRunsWhole(t *testing.T) {
	const d, shards, writers, nruns = 16, 2, 4, 400
	a := dyadic.NewTree(d).FlatIndex(dyadic.Interval{Order: 0, Index: 1})
	b := dyadic.NewTree(d).FlatIndex(dyadic.Interval{Order: 0, Index: 2})
	run := []lockRec{{r: Report{Order: 0, J: 1, Bit: 1}}}
	for j := 0; j < 64; j++ {
		run = append(run, lockRec{item: j % 3, r: Report{Order: 1 + j%3, J: 1, Bit: int8(1 - 2*(j%2))}})
	}
	run = append(run, lockRec{item: 1, r: Report{Order: 0, J: 2, Bit: -1}})
	runs := make([][][]lockRec, writers)
	for w := range runs {
		for i := 0; i < nruns; i++ {
			runs[w] = append(runs[w], run)
		}
	}
	var torn atomic.Int64
	check := func(sums []int64) {
		if sums[a]+sums[b] != 0 {
			torn.Add(1)
		}
	}

	acc := NewSharded(d, 1, shards)
	hammer(runs, shards, 2, func(shard int, run []lockRec) {
		w := acc.Lock(shard)
		defer w.Unlock()
		for _, rc := range run {
			w.Ingest(0, rc.r)
		}
	}, func(i int) {
		switch i % 3 {
		case 0:
			_, _, sums := acc.Fold()
			check(sums)
		case 1:
			check(acc.Snapshot().IntervalSums())
		case 2:
			srv := NewServer(d, 1)
			if err := srv.RestoreState(acc.MarshalState()); err != nil {
				panic(err)
			}
			check(srv.IntervalSums())
		}
	})
	if n := torn.Load(); n > 0 {
		t.Fatalf("Sharded: %d reads saw a run's +1 without its −1", n)
	}

	const m = 3
	dom := NewDomainSharded(d, m, 1, shards)
	stride := RawStride(d)
	hammer(runs, shards, 2, func(shard int, run []lockRec) {
		w := dom.Lock(shard)
		defer w.Unlock()
		for _, rc := range run {
			w.Ingest(rc.item, rc.r)
		}
	}, func(i int) {
		raw := make([]int64, m*stride)
		if i%2 == 0 {
			dom.FoldInto(raw)
		} else {
			fresh := NewDomainSharded(d, m, 1, 1)
			if err := fresh.RestoreState(dom.MarshalState()); err != nil {
				panic(err)
			}
			fresh.FoldInto(raw)
		}
		total := make([]int64, stride)
		for x := 0; x < m; x++ {
			for c, v := range raw[x*stride : (x+1)*stride] {
				total[c] += v
			}
		}
		_, _, sums := SplitRaw(d, total)
		check(sums)
	})
	if n := torn.Load(); n > 0 {
		t.Fatalf("DomainSharded: %d reads saw a run's +1 without its −1", n)
	}
}

// TestOverStatesTakeNoLock: an accumulator built over adopted counters
// has no writer and no lock — its reads touch no shared lock word, so
// connections answering from one gathered state never contend — and a
// write to it is refused.
func TestOverStatesTakeNoLock(t *testing.T) {
	const d, m = 16, 4
	live := NewDomainSharded(d, m, 2, 2)
	for i := 0; i < 200; i++ {
		live.Register(i%2, i%m, i%dyadic.NumOrders(d))
		live.Ingest(i%2, (i+1)%m, Report{Order: i % 3, J: 1, Bit: 1})
	}
	raw := make([]int64, m*RawStride(d))
	live.FoldInto(raw)
	over, err := DomainShardedOver(d, m, 2, 0, 0, slices.Clone(raw))
	if err != nil {
		t.Fatal(err)
	}
	boolOver, err := ShardedOver(d, 2, 0, 0, slices.Clone(raw[:RawStride(d)]))
	if err != nil {
		t.Fatal(err)
	}
	if over.locks != nil || boolOver.m.locks != nil {
		t.Fatal("a state over adopted counters has a lock set")
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tt := 1; tt <= d; tt++ {
				if !slices.Equal(over.EstimateAllAt(tt), live.EstimateAllAt(tt)) {
					t.Errorf("EstimateAllAt(%d) over the fold differs from the live matrix", tt)
				}
				_ = boolOver.EstimateAt(tt)
			}
			if !bytes.Equal(over.MarshalState(), live.MarshalState()) {
				t.Error("MarshalState over the fold differs from the live matrix")
			}
		}()
	}
	wg.Wait()

	for name, write := range map[string]func(){
		"DomainShardedOver.Lock":     func() { over.Lock(0) },
		"DomainShardedOver.Register": func() { over.Register(0, 0, 0) },
		"DomainShardedOver.MergeRaw": func() { _ = over.MergeRaw(raw) },
		"ShardedOver.Ingest":         func() { boolOver.Ingest(0, Report{Order: 0, J: 1, Bit: 1}) },
		"ShardedOver.RestoreState":   func() { _ = boolOver.RestoreState(boolOver.MarshalState()) },
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "read-only") {
					t.Errorf("%s: recovered %q, want a read-only refusal", name, r)
				}
			}()
			write()
		}()
	}
}

// TestWriterPanics: a run's writers keep every range panic of the
// per-report entries, with their messages.
func TestWriterPanics(t *testing.T) {
	acc := NewSharded(8, 1, 2)
	dom := NewDomainSharded(8, 3, 1, 2)
	for _, c := range []struct {
		name, want string
		f          func()
	}{
		{"bit", "protocol: report bit 0 not ±1", func() { acc.Ingest(0, Report{Order: 0, J: 1, Bit: 0}) }},
		{"order", "dyadic: order out of range", func() { acc.Ingest(1, Report{Order: 4, J: 1, Bit: 1}) }},
		{"negative order", "dyadic: order out of range", func() { acc.Ingest(1, Report{Order: -1, J: 1, Bit: 1}) }},
		{"index", "dyadic: index out of range", func() { acc.Ingest(0, Report{Order: 1, J: 5, Bit: 1}) }},
		{"index 0", "dyadic: index out of range", func() { acc.Ingest(0, Report{Order: 0, J: 0, Bit: -1}) }},
		{"hello order", "protocol: order 4 out of range", func() { acc.Register(0, 4) }},
		{"item", "protocol: item 3 outside [0..3)", func() { dom.Ingest(0, 3, Report{Order: 0, J: 1, Bit: 1}) }},
		{"domain bit", "protocol: report bit 2 not ±1", func() { dom.Ingest(0, 1, Report{Order: 0, J: 1, Bit: 2}) }},
		{"domain index", "dyadic: index out of range", func() { dom.Ingest(1, 2, Report{Order: 3, J: 2, Bit: 1}) }},
		{"hello item", "protocol: item -1 outside [0..3)", func() { dom.Register(0, -1, 0) }},
		{"domain hello order", "protocol: order 9 out of range", func() { dom.Register(0, 0, 9) }},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || err.Error() != c.want {
					t.Errorf("%s: panic %v, want %q", c.name, err, c.want)
				}
			}()
			c.f()
		}()
	}
	// A panicking write releases its shard: the next run on it proceeds.
	w := acc.Lock(0)
	w.Ingest(0, Report{Order: 0, J: 1, Bit: 1})
	w.Unlock()
	dw := dom.Lock(0)
	dw.Unlock()
}
