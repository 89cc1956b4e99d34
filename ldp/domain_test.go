package ldp

import (
	"errors"
	"testing"
)

// TestDomainWorkloadValidation is the boundary hardening table for
// domain workloads: negative and out-of-range item values, non-positive
// or oversized domains, and unsorted or duplicate-time change lists are
// all rejected with errors before any client or accumulator is built —
// the same discipline as the negative-user-id hardening on the Boolean
// path.
func TestDomainWorkloadValidation(t *testing.T) {
	stream := func(cs ...DomainChange) []DomainStream { return []DomainStream{{Changes: cs}} }
	cases := []struct {
		name string
		w    *DomainWorkload
	}{
		{"nil workload", nil},
		{"non-pow2 horizon", &DomainWorkload{N: 1, D: 6, M: 3, K: 2, Users: stream()}},
		{"domain of one", &DomainWorkload{N: 1, D: 8, M: 1, K: 2, Users: stream()}},
		{"domain of zero", &DomainWorkload{N: 1, D: 8, M: 0, K: 2, Users: stream()}},
		{"negative domain", &DomainWorkload{N: 1, D: 8, M: -4, K: 2, Users: stream()}},
		{"oversized domain", &DomainWorkload{N: 1, D: 8, M: MaxDomainSize + 1, K: 2, Users: stream()}},
		{"negative value", &DomainWorkload{N: 1, D: 8, M: 3, K: 2, Users: stream(DomainChange{T: 1, Value: -1})}},
		{"value == m", &DomainWorkload{N: 1, D: 8, M: 3, K: 2, Users: stream(DomainChange{T: 1, Value: 3})}},
		{"unsorted times", &DomainWorkload{N: 1, D: 8, M: 3, K: 3, Users: stream(DomainChange{T: 4, Value: 0}, DomainChange{T: 2, Value: 1})}},
		{"duplicate times", &DomainWorkload{N: 1, D: 8, M: 3, K: 3, Users: stream(DomainChange{T: 2, Value: 0}, DomainChange{T: 2, Value: 1})}},
		{"time zero", &DomainWorkload{N: 1, D: 8, M: 3, K: 2, Users: stream(DomainChange{T: 0, Value: 0})}},
		{"time past horizon", &DomainWorkload{N: 1, D: 8, M: 3, K: 2, Users: stream(DomainChange{T: 9, Value: 0})}},
		{"too many changes", &DomainWorkload{N: 1, D: 8, M: 3, K: 1, Users: stream(DomainChange{T: 1, Value: 0}, DomainChange{T: 2, Value: 1})}},
		{"user count mismatch", &DomainWorkload{N: 2, D: 8, M: 3, K: 2, Users: stream()}},
	}
	for _, tc := range cases {
		if _, _, err := streamDomain(tc.w, 0, WithEpsilon(1)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// And the valid baseline passes.
	ok := &DomainWorkload{N: 1, D: 8, M: 3, K: 2, Users: stream(DomainChange{T: 1, Value: 0}, DomainChange{T: 4, Value: 2})}
	if _, _, err := streamDomain(ok, 0, WithEpsilon(1)); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
}

// TestDomainConstructorValidation covers the streaming constructors'
// boundary checks.
func TestDomainConstructorValidation(t *testing.T) {
	if _, err := NewDomainServer(16, 1); err == nil {
		t.Error("domain of one accepted")
	}
	if _, err := NewDomainServer(16, MaxDomainSize+1); err == nil {
		t.Error("oversized domain accepted")
	}
	if _, err := NewDomainServer(12, 4); err == nil {
		t.Error("non-pow2 horizon accepted")
	}
	if _, err := NewDomainServer(16, 4, WithMechanism(NaiveSplit)); err == nil {
		t.Error("non-domain mechanism accepted for server")
	}
	if _, err := NewDomainServer(16, 4, WithMechanism("nope")); err == nil {
		t.Error("unknown mechanism accepted for server")
	}
	if _, err := NewDomainClient(0, 16, 1); err == nil {
		t.Error("domain of one accepted for client")
	}
	if _, err := NewDomainClient(0, 16, 4, WithMechanism(CentralBinary)); err == nil {
		t.Error("non-domain mechanism accepted for client")
	}
	if _, err := NewDomainClient(-1, 16, 4); err == nil {
		t.Error("negative user accepted")
	}
	if _, err := NewDomainClientFactory(12, 4); err == nil {
		t.Error("non-pow2 horizon accepted for factory")
	}
	for _, eps := range []float64{0, -1, 2} {
		if _, err := NewDomainClientFactory(16, 4, WithEpsilon(eps)); err == nil {
			t.Errorf("eps=%v accepted for factory", eps)
		}
	}
	for _, p := range []Protocol{FutureRand, Erlingsson, Independent, Bun} {
		if _, err := NewDomainClientFactory(16, 4, WithMechanism(p)); err != nil {
			t.Errorf("%s rejected for factory: %v", p, err)
		}
	}
}

// TestDomainServerIngestValidation mirrors the Boolean server's
// report hardening on the item-tagged path.
func TestDomainServerIngestValidation(t *testing.T) {
	srv, err := NewDomainServer(16, 4, WithSparsity(2), WithEpsilon(1))
	if err != nil {
		t.Fatal(err)
	}
	good := DomainReport{Item: 1, Report: Report{User: 3, Order: 0, J: 5, Bit: 1}}
	if err := srv.Ingest(good); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := []struct {
		name string
		r    DomainReport
	}{
		{"negative user", DomainReport{Item: 1, Report: Report{User: -1, Order: 0, J: 1, Bit: 1}}},
		{"negative item", DomainReport{Item: -1, Report: Report{User: 1, Order: 0, J: 1, Bit: 1}}},
		{"item == m", DomainReport{Item: 4, Report: Report{User: 1, Order: 0, J: 1, Bit: 1}}},
		{"zero bit", DomainReport{Item: 1, Report: Report{User: 1, Order: 0, J: 1, Bit: 0}}},
		{"order too big", DomainReport{Item: 1, Report: Report{User: 1, Order: 5, J: 1, Bit: 1}}},
		{"index too big", DomainReport{Item: 1, Report: Report{User: 1, Order: 1, J: 9, Bit: 1}}},
		{"index zero", DomainReport{Item: 1, Report: Report{User: 1, Order: 0, J: 0, Bit: 1}}},
	}
	for _, tc := range bad {
		if err := srv.Ingest(tc.r); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := srv.Register(4, 0); err == nil {
		t.Error("register item == m accepted")
	}
	if err := srv.Register(-1, 0); err == nil {
		t.Error("register negative item accepted")
	}
	if err := srv.Register(0, 5); err == nil {
		t.Error("register bad order accepted")
	}
	if err := srv.Register(0, 0); err != nil {
		t.Errorf("valid register rejected: %v", err)
	}
}

// TestDomainAnswerValidation pins the query-shape contract: item kinds
// on a Boolean server fail, Boolean kinds on a domain server fail, and
// item-scoped bounds are enforced.
func TestDomainAnswerValidation(t *testing.T) {
	boolSrv, err := NewServer(16, WithSparsity(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{PointItemQuery(0, 1), SeriesItemQuery(0), TopKQuery(1, 2)} {
		if _, err := boolSrv.Answer(q); err == nil {
			t.Errorf("Boolean server accepted %s query", q.Kind)
		}
	}
	dsrv, err := NewDomainServer(16, 4, WithSparsity(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{PointQuery(1), ChangeQuery(1, 4), SeriesQuery(), WindowQuery(1, 4)} {
		if _, err := dsrv.Answer(q); err == nil {
			t.Errorf("domain server accepted %s query", q.Kind)
		}
	}
	bad := []Query{
		PointItemQuery(-1, 1),
		PointItemQuery(4, 1),
		PointItemQuery(0, 0),
		PointItemQuery(0, 17),
		SeriesItemQuery(-1),
		SeriesItemQuery(4),
		TopKQuery(0, 2),
		TopKQuery(17, 2),
		{Kind: TopK, T: 1, K: -1},
		{Kind: QueryKind(99)},
	}
	for _, q := range bad {
		if _, err := dsrv.Answer(q); err == nil {
			t.Errorf("domain server accepted invalid query %+v", q)
		}
	}
}

// streamDomain feeds every user of w through the streaming domain API
// — one client per user from one factory, seeded perUserSeed(seed, u)
// exactly as NewDomainClient would seed it, sparsity max(w.K, 1) — into
// one DomainServer, and returns the server and each item's estimated
// series.
func streamDomain(w *DomainWorkload, seed int64, opts ...Option) (*DomainServer, [][]float64, error) {
	if w == nil {
		return nil, nil, errors.New("nil domain workload")
	}
	if err := w.Validate(); err != nil {
		return nil, nil, err
	}
	opts = append([]Option{WithSparsity(max(w.K, 1))}, opts...)
	factory, err := NewDomainClientFactory(w.D, w.M, opts...)
	if err != nil {
		return nil, nil, err
	}
	srv, err := NewDomainServer(w.D, w.M, opts...)
	if err != nil {
		return nil, nil, err
	}
	for u, us := range w.Users {
		c, err := factory.NewClient(u, perUserSeed(seed, u))
		if err != nil {
			return nil, nil, err
		}
		if err := srv.Register(c.Item(), c.Order()); err != nil {
			return nil, nil, err
		}
		for _, v := range us.Values(w.D) {
			r, ok, err := c.Observe(v)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				if err := srv.Ingest(r); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	est := make([][]float64, w.M)
	for x := range est {
		a, err := srv.Answer(SeriesItemQuery(x))
		if err != nil {
			return nil, nil, err
		}
		est[x] = a.Series
	}
	return srv, est, nil
}

// TestDomainAnswersAgree: every item-scoped query shape answers from the
// same counters — point answers equal the series, TopK is sorted with
// ties toward the smaller item, and Answer(TopKQuery) equals TopK().
func TestDomainAnswersAgree(t *testing.T) {
	w, err := GenerateDomain(800, 32, 4, 3, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, est, err := streamDomain(w, 5, WithEpsilon(1))
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < w.M; x++ {
		v, err := srv.EstimateItemAt(x, w.D)
		if err != nil {
			t.Fatal(err)
		}
		if v != est[x][w.D-1] {
			t.Fatalf("item %d: point %v != series %v", x, v, est[x][w.D-1])
		}
	}
	top, err := srv.TopK(w.D, w.M)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != w.M {
		t.Fatalf("TopK returned %d items, want %d", len(top), w.M)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Fatalf("TopK not sorted: %v", top)
		}
		if top[i].Count == top[i-1].Count && top[i].Item < top[i-1].Item {
			t.Fatalf("TopK tie not broken by item: %v", top)
		}
	}
	a, err := srv.Answer(TopKQuery(w.D, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 2 || len(a.Series) != 2 {
		t.Fatalf("TopK answer shape %d/%d, want 2/2", len(a.Items), len(a.Series))
	}
	for i := range a.Items {
		if a.Items[i] != top[i].Item || a.Series[i] != top[i].Count {
			t.Fatalf("TopK answer %v/%v disagrees with TopK() %v", a.Items, a.Series, top)
		}
	}
}

// TestDomainStateRoundTrip covers the public snapshot path of the
// domain server.
func TestDomainStateRoundTrip(t *testing.T) {
	w, err := GenerateDomain(500, 16, 4, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithEpsilon(1), WithSparsity(w.K)}
	factory, err := NewDomainClientFactory(w.D, w.M, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDomainServer(w.D, w.M, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for u, us := range w.Users {
		c, err := factory.NewClient(u, int64(u))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(c.Item(), c.Order()); err != nil {
			t.Fatal(err)
		}
		vals := us.Values(w.D)
		for tt := 1; tt <= w.D; tt++ {
			if r, ok, err := c.Observe(vals[tt-1]); err != nil {
				t.Fatal(err)
			} else if ok {
				if err := srv.Ingest(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	state, err := srv.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDomainServer(w.D, w.M, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < w.M; x++ {
		a, _ := srv.Answer(SeriesItemQuery(x))
		b, _ := fresh.Answer(SeriesItemQuery(x))
		for i := range a.Series {
			if a.Series[i] != b.Series[i] {
				t.Fatalf("item %d t=%d: restored %v, want %v", x, i+1, b.Series[i], a.Series[i])
			}
		}
	}
	// A differently-parameterized server refuses the payload.
	other, err := NewDomainServer(w.D, w.M, WithEpsilon(0.5), WithSparsity(w.K))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(state); err == nil {
		t.Error("restore under a different epsilon accepted")
	}
}

// TestDomainClientDeterminism pins the factory's seeding contract: the
// same (user, seed) pair reproduces the item and the report stream, and
// the item draw does not exhaust the client's randomness.
func TestDomainClientDeterminism(t *testing.T) {
	factory, err := NewDomainClientFactory(16, 4, WithSparsity(2))
	if err != nil {
		t.Fatal(err)
	}
	vals := []int{-1, -1, 2, 2, 2, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3, 3}
	run := func() (int, []DomainReport) {
		c, err := factory.NewClient(7, 99)
		if err != nil {
			t.Fatal(err)
		}
		var out []DomainReport
		for tt := 1; tt <= 16; tt++ {
			r, ok, err := c.Observe(vals[tt-1])
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				out = append(out, r)
			}
		}
		return c.Item(), out
	}
	item1, rep1 := run()
	item2, rep2 := run()
	if item1 != item2 {
		t.Fatalf("items diverged: %d vs %d", item1, item2)
	}
	if len(rep1) != len(rep2) {
		t.Fatalf("report counts diverged: %d vs %d", len(rep1), len(rep2))
	}
	for i := range rep1 {
		if rep1[i] != rep2[i] {
			t.Fatalf("report %d diverged: %+v vs %+v", i, rep1[i], rep2[i])
		}
		if rep1[i].Item != item1 {
			t.Fatalf("report %d carries item %d, client sampled %d", i, rep1[i].Item, item1)
		}
	}
	// Observe validates values at the public boundary.
	c, err := factory.NewClient(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Observe(4); err == nil {
		t.Error("value m accepted")
	}
	if _, _, err := c.Observe(-2); err == nil {
		t.Error("value -2 accepted")
	}
}
