package hh

import (
	"bytes"
	"math"
	"testing"

	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/sim"
)

func TestDomainStreamValueAt(t *testing.T) {
	s := DomainStream{Changes: []ValueChange{{T: 2, Value: 3}, {T: 5, Value: 1}}}
	want := []int{-1, 3, 3, 3, 1, 1}
	for tt := 1; tt <= 6; tt++ {
		if got := s.ValueAt(tt); got != want[tt-1] {
			t.Errorf("ValueAt(%d) = %d, want %d", tt, got, want[tt-1])
		}
	}
}

func TestDomainStreamValues(t *testing.T) {
	g := rng.New(1, 2)
	w, err := (ZipfDomainGen{N: 100, D: 32, M: 6, K: 5, S: 1}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	for u, us := range w.Users {
		vals := us.Values(w.D)
		for tt := 1; tt <= w.D; tt++ {
			if vals[tt-1] != us.ValueAt(tt) {
				t.Fatalf("user %d t=%d: Values=%d, ValueAt=%d", u, tt, vals[tt-1], us.ValueAt(tt))
			}
		}
	}
}

// TestDomainClientIndicator pins the reduction: the wrapped Boolean
// client must see exactly the indicator stream 1{v = item}, which
// changes at most as often as the value stream.
func TestDomainClientIndicator(t *testing.T) {
	obs := &recordingObserver{}
	c, err := NewDomainClient(3, ExactEncoding(5), obs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Row() != 3 {
		t.Fatalf("Row() = %d, want 3", c.Row())
	}
	in := []int{-1, 2, 3, 3, 1, 3}
	want := []bool{false, false, true, true, false, true}
	for _, v := range in {
		if _, _, err := c.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if len(obs.vals) != len(want) {
		t.Fatalf("observer saw %d values, want %d", len(obs.vals), len(want))
	}
	for i := range want {
		if obs.vals[i] != want[i] {
			t.Fatalf("indicator[%d] = %v, want %v (input %v)", i, obs.vals, want, in)
		}
	}
	// Out-of-range values are rejected without touching the inner client.
	seen := len(obs.vals)
	if _, _, err := c.Observe(5); err == nil {
		t.Error("value m accepted")
	}
	if _, _, err := c.Observe(-2); err == nil {
		t.Error("value -2 accepted")
	}
	if len(obs.vals) != seen {
		t.Error("rejected value reached the inner client")
	}
	// Constructor validation.
	if _, err := NewDomainClient(-1, ExactEncoding(5), obs); err == nil {
		t.Error("negative item accepted")
	}
	if _, err := NewDomainClient(5, ExactEncoding(5), obs); err == nil {
		t.Error("item == m accepted")
	}
	if _, err := NewDomainClient(0, ExactEncoding(1), obs); err == nil {
		t.Error("domain of size 1 accepted")
	}
}

type recordingObserver struct{ vals []bool }

func (r *recordingObserver) Order() int { return 0 }
func (r *recordingObserver) Observe(v bool) (protocol.Report, bool) {
	r.vals = append(r.vals, v)
	return protocol.Report{}, false
}

func TestTruthMatchesBruteForce(t *testing.T) {
	g := rng.New(3, 4)
	w, err := (ZipfDomainGen{N: 100, D: 32, M: 5, K: 4, S: 1}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Truth()
	for x := 0; x < w.M; x++ {
		for tt := 1; tt <= w.D; tt++ {
			want := 0
			for _, us := range w.Users {
				if us.ValueAt(tt) == x {
					want++
				}
			}
			if truth[x][tt-1] != want {
				t.Fatalf("truth[%d][%d] = %d, want %d", x, tt, truth[x][tt-1], want)
			}
		}
	}
}

func TestTruthSumsToActiveUsers(t *testing.T) {
	g := rng.New(5, 6)
	w, err := (ZipfDomainGen{N: 200, D: 16, M: 4, K: 3, S: 0.5}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Truth()
	for tt := 1; tt <= w.D; tt++ {
		total := 0
		for x := 0; x < w.M; x++ {
			total += truth[x][tt-1]
		}
		active := 0
		for _, us := range w.Users {
			if us.ValueAt(tt) >= 0 {
				active++
			}
		}
		if total != active {
			t.Fatalf("t=%d: frequencies sum to %d, active users %d", tt, total, active)
		}
	}
}

func TestValidate(t *testing.T) {
	valid := &DomainWorkload{N: 1, D: 8, M: 3, K: 2, Users: []DomainStream{
		{Changes: []ValueChange{{T: 1, Value: 0}, {T: 4, Value: 2}}},
	}}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	bad := map[string]*DomainWorkload{
		"bad d":     {N: 1, D: 6, M: 3, K: 2, Users: []DomainStream{{}}},
		"bad m":     {N: 1, D: 8, M: 1, K: 2, Users: []DomainStream{{}}},
		"too many":  {N: 1, D: 8, M: 3, K: 1, Users: []DomainStream{{Changes: []ValueChange{{1, 0}, {2, 1}}}}},
		"bad value": {N: 1, D: 8, M: 3, K: 2, Users: []DomainStream{{Changes: []ValueChange{{1, 5}}}}},
		"negative":  {N: 1, D: 8, M: 3, K: 2, Users: []DomainStream{{Changes: []ValueChange{{1, -1}}}}},
		"no-op":     {N: 1, D: 8, M: 3, K: 3, Users: []DomainStream{{Changes: []ValueChange{{1, 0}, {2, 0}}}}},
		"unsorted":  {N: 1, D: 8, M: 3, K: 3, Users: []DomainStream{{Changes: []ValueChange{{4, 0}, {2, 1}}}}},
		"dup time":  {N: 1, D: 8, M: 3, K: 3, Users: []DomainStream{{Changes: []ValueChange{{2, 0}, {2, 1}}}}},
		"count":     {N: 2, D: 8, M: 3, K: 2, Users: []DomainStream{{}}},
	}
	for name, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	g := rng.New(7, 8)
	bad := []ZipfDomainGen{
		{N: 0, D: 8, M: 3, K: 2, S: 1},
		{N: 10, D: 7, M: 3, K: 2, S: 1},
		{N: 10, D: 8, M: 1, K: 2, S: 1},
		{N: 10, D: 8, M: 3, K: 0, S: 1},
		{N: 10, D: 8, M: 3, K: 2, S: -1},
	}
	for _, gen := range bad {
		if _, err := gen.Generate(g); err == nil {
			t.Errorf("%+v accepted", gen)
		}
	}
	w, err := (ZipfDomainGen{N: 50, D: 16, M: 4, K: 3, S: 1.2}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Errorf("generated workload invalid: %v", err)
	}
}

// runStreaming drives one full streaming execution of the reduction:
// fresh item sampling and client randomness per call, reports partitioned
// into srv by item.
func runStreaming(t *testing.T, w *DomainWorkload, eps float64, g *rng.RNG) *DomainServer {
	t.Helper()
	factories, err := sim.FutureRand.Factories(w.D, w.K, eps)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := sim.FutureRand.Scale(w.D, w.K, eps)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewDomainServer(w.D, w.M, scale, 1)
	for u, us := range w.Users {
		item := g.IntN(w.M)
		c, err := NewDomainClient(item, ExactEncoding(w.M), protocol.NewClient(u, w.D, factories, g.Split()))
		if err != nil {
			t.Fatal(err)
		}
		srv.Register(0, c.Row(), c.Order())
		vals := us.Values(w.D)
		for tt := 1; tt <= w.D; tt++ {
			r, ok, err := c.Observe(vals[tt-1])
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				srv.Ingest(0, c.Row(), r)
			}
		}
	}
	return srv
}

// TestStreamingUnbiased is E16 in miniature over the streaming engines:
// over repeated runs (fresh item sampling and randomizers each time),
// the per-item estimates center on f(x,t).
func TestStreamingUnbiased(t *testing.T) {
	g := rng.New(9, 10)
	w, err := (ZipfDomainGen{N: 300, D: 8, M: 3, K: 2, S: 1}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Truth()
	const trials = 60
	sums := make([][]float64, w.M)
	sqs := make([][]float64, w.M)
	for x := range sums {
		sums[x] = make([]float64, w.D)
		sqs[x] = make([]float64, w.D)
	}
	for i := 0; i < trials; i++ {
		srv := runStreaming(t, w, 1, g.Split())
		for x := 0; x < w.M; x++ {
			est := srv.EstimateItemSeries(x)
			for tt := 0; tt < w.D; tt++ {
				sums[x][tt] += est[tt]
				sqs[x][tt] += est[tt] * est[tt]
			}
		}
	}
	for x := 0; x < w.M; x++ {
		for _, tt := range []int{3, 7} {
			mean := sums[x][tt] / trials
			sd := math.Sqrt(sqs[x][tt]/trials - mean*mean)
			se := sd / math.Sqrt(trials)
			if math.Abs(mean-float64(truth[x][tt])) > 6*se {
				t.Errorf("item %d t=%d: mean %v, truth %d (se %v)", x, tt+1, mean, truth[x][tt], se)
			}
		}
	}
}

// TestServerSeriesConsistency pins the per-item read paths against each
// other: series, truncated series and point estimates must agree
// bit-for-bit, and the ×m scale must be folded in exactly once.
func TestServerSeriesConsistency(t *testing.T) {
	g := rng.New(11, 12)
	w, err := (ZipfDomainGen{N: 500, D: 32, M: 4, K: 3, S: 1}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	srv := runStreaming(t, w, 1, g.Split())
	if srv.D() != w.D || srv.M() != w.M {
		t.Fatalf("server dims %d/%d, want %d/%d", srv.D(), srv.M(), w.D, w.M)
	}
	for x := 0; x < w.M; x++ {
		series := srv.EstimateItemSeries(x)
		if len(series) != w.D {
			t.Fatalf("item %d series has %d entries", x, len(series))
		}
		for tt := 1; tt <= w.D; tt++ {
			if got := srv.EstimateItemAt(x, tt); got != series[tt-1] {
				t.Fatalf("item %d t=%d: point %v != series %v", x, tt, got, series[tt-1])
			}
		}
	}
	if srv.Users() != w.N {
		t.Fatalf("users %d, want %d", srv.Users(), w.N)
	}
}

// TestTopKDeterministic pins the top-k ordering contract: descending by
// estimate, ties toward the smaller item, k clamped to m, and the list
// a pure function of the per-item point estimates.
func TestTopKDeterministic(t *testing.T) {
	srv := NewDomainServer(8, 4, 1, 1)
	// Inject raw sums directly: item 1 highest, items 0 and 2 tied,
	// item 3 negative. Order-0 interval J=1 covers t=1.
	inject := func(item int, sum int64) {
		for i := int64(0); i < sum; i++ {
			srv.Ingest(0, item, protocol.Report{Order: 0, J: 1, Bit: 1})
		}
	}
	inject(0, 5)
	inject(1, 9)
	inject(2, 5)
	srv.Ingest(0, 3, protocol.Report{Order: 0, J: 1, Bit: -1})
	got := srv.TopK(1, 3)
	want := []ItemCount{
		{Item: 1, Count: srv.EstimateItemAt(1, 1)},
		{Item: 0, Count: srv.EstimateItemAt(0, 1)},
		{Item: 2, Count: srv.EstimateItemAt(2, 1)},
	}
	if len(got) != len(want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", got, want)
		}
	}
	if got := srv.TopK(1, 100); len(got) != 4 {
		t.Fatalf("clamped TopK has %d entries, want 4", len(got))
	}
	if got := srv.TopK(1, 0); len(got) != 0 {
		t.Fatalf("TopK(_, 0) = %v, want empty", got)
	}
	for name, f := range map[string]func(){
		"t=0":      func() { srv.TopK(0, 1) },
		"t>d":      func() { srv.TopK(9, 1) },
		"k<0":      func() { srv.TopK(1, -1) },
		"bad item": func() { srv.EstimateItemAt(4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestStateRoundTrip pins the domain snapshot payload: a restored
// server answers every per-item estimate (and so TopK) bit-for-bit.
func TestStateRoundTrip(t *testing.T) {
	g := rng.New(13, 14)
	w, err := (ZipfDomainGen{N: 400, D: 16, M: 5, K: 3, S: 1}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	srv := runStreaming(t, w, 1, g.Split())
	state := srv.MarshalState()

	fresh := NewDomainServer(w.D, w.M, srv.BoolScale(), 4)
	if err := fresh.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < w.M; x++ {
		a, b := srv.EstimateItemSeries(x), fresh.EstimateItemSeries(x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("item %d t=%d: restored %v, want %v", x, i+1, b[i], a[i])
			}
		}
	}
	ta, tb := srv.TopK(w.D, 3), fresh.TopK(w.D, 3)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("restored TopK %v, want %v", tb, ta)
		}
	}

	// Mismatched configurations are refused.
	if err := NewDomainServer(w.D, w.M+1, srv.BoolScale(), 1).RestoreState(state); err == nil {
		t.Error("restore into a different m accepted")
	}
	if err := NewDomainServer(w.D*2, w.M, srv.BoolScale(), 1).RestoreState(state); err == nil {
		t.Error("restore into a different d accepted")
	}
	if err := NewDomainServer(w.D, w.M, srv.BoolScale()*2, 1).RestoreState(state); err == nil {
		t.Error("restore into a different scale accepted")
	}
	if err := fresh.RestoreState(state[:len(state)-1]); err == nil {
		t.Error("truncated state accepted")
	}
	if err := fresh.RestoreState(append(append([]byte(nil), state...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestMergeRawEqualsSerial is the cluster exactness argument at the hh
// level: partition users across three servers, merge their raw per-item
// sums into a fresh server, and require bit-for-bit equality with one
// serial server fed everything.
func TestMergeRawEqualsSerial(t *testing.T) {
	g := rng.New(15, 16)
	w, err := (ZipfDomainGen{N: 600, D: 16, M: 4, K: 3, S: 1}).Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	factories, err := sim.FutureRand.Factories(w.D, w.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := sim.FutureRand.Scale(w.D, w.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewDomainServer(w.D, w.M, scale, 1)
	parts := []*DomainServer{
		NewDomainServer(w.D, w.M, scale, 2),
		NewDomainServer(w.D, w.M, scale, 1),
		NewDomainServer(w.D, w.M, scale, 3),
	}
	for u, us := range w.Users {
		item := g.IntN(w.M)
		c, err := NewDomainClient(item, ExactEncoding(w.M), protocol.NewClient(u, w.D, factories, g.Split()))
		if err != nil {
			t.Fatal(err)
		}
		part := parts[u%len(parts)]
		serial.Register(0, item, c.Order())
		part.Register(u, item, c.Order())
		vals := us.Values(w.D)
		for tt := 1; tt <= w.D; tt++ {
			r, ok, err := c.Observe(vals[tt-1])
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				serial.Ingest(0, item, r)
				part.Ingest(u, item, r)
			}
		}
	}
	merged := NewDomainServer(w.D, w.M, scale, 1)
	total := make([]int64, w.M*protocol.RawStride(w.D))
	for _, part := range parts {
		raw := make([]int64, len(total))
		part.FoldInto(raw)
		if err := merged.MergeRaw(raw); err != nil {
			t.Fatal(err)
		}
		for j, v := range raw {
			total[j] += v
		}
	}
	// A server built over the summed matrix is the same server.
	over, err := DomainServerOver(w.D, w.M, scale, 0, 0, total)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(over.MarshalState(), merged.MarshalState()) {
		t.Fatal("DomainServerOver state differs from the merged server's")
	}
	for x := 0; x < w.M; x++ {
		a, b := serial.EstimateItemSeries(x), merged.EstimateItemSeries(x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("item %d t=%d: merged %v, serial %v", x, i+1, b[i], a[i])
			}
		}
	}
	ta, tb := serial.TopK(w.D, w.M), merged.TopK(w.D, w.M)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("merged TopK %v, serial %v", tb, ta)
		}
	}
	// Merge validation.
	if err := merged.MergeRaw(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	bad := make([]int64, w.M*protocol.RawStride(w.D))
	bad[0] = -1
	if err := merged.MergeRaw(bad); err == nil {
		t.Error("negative user count accepted")
	}
	if err := merged.MergeRaw(bad[1:]); err == nil {
		t.Error("short matrix accepted")
	}
}
