package ldp

import (
	"testing"

	"rtf/internal/wire"
)

// TestQueryKindWireCoupling pins the 1:1 mapping between the public
// query kinds and the transport wire encoding. The two enums are
// defined in different packages and coupled only by value; a reordering
// on either side would silently corrupt the wire protocol, so this
// table is the compile-anchored contract.
func TestQueryKindWireCoupling(t *testing.T) {
	pairs := []struct {
		pub  QueryKind
		wire wire.QueryKind
	}{
		{Point, wire.QueryPoint},
		{Change, wire.QueryChange},
		{Series, wire.QuerySeries},
		{Window, wire.QueryWindow},
		{PointItem, wire.QueryPointItem},
		{SeriesItem, wire.QuerySeriesItem},
		{TopK, wire.QueryTopK},
	}
	seen := map[int]bool{}
	for _, p := range pairs {
		if int(p.pub) != int(p.wire) {
			t.Errorf("ldp.%s = %d but transport.%s = %d: wire encoding diverged",
				p.pub, int(p.pub), p.wire, int(p.wire))
		}
		if seen[int(p.pub)] {
			t.Errorf("duplicate wire value %d", int(p.pub))
		}
		seen[int(p.pub)] = true
		// The names must agree too: a v2 frame built from a public kind
		// must answer with the same kind.
		if p.pub.String() != p.wire.String() {
			t.Errorf("kind %d named %q publicly but %q on the wire", int(p.pub), p.pub, p.wire)
		}
	}
	// Every public kind is covered (Point..TopK are 1..7 contiguously).
	for k := Point; k <= TopK; k++ {
		if !seen[int(k)] {
			t.Errorf("query kind %s (%d) missing from the wire mapping table", k, int(k))
		}
	}
}

// reusingEngine is a ServerEngine whose series methods hand out the
// same internal buffer every call — the shape Answer's window path must
// defend against by cloning.
type reusingEngine struct {
	d   int
	buf []float64
}

func (e *reusingEngine) Register(order int) error  { return nil }
func (e *reusingEngine) Ingest(r Report) error     { return nil }
func (e *reusingEngine) EstimateAt(t int) float64  { return float64(t) }
func (e *reusingEngine) EstimateSeries() []float64 { return e.EstimateSeriesTo(e.d) }
func (e *reusingEngine) EstimateSeriesTo(r int) []float64 {
	if e.buf == nil {
		e.buf = make([]float64, e.d)
	}
	for t := 1; t <= r; t++ {
		e.buf[t-1] = float64(t)
	}
	return e.buf[:r]
}
func (e *reusingEngine) EstimateChange(l, r int) float64 { return float64(r - l) }
func (e *reusingEngine) Users() int                      { return 0 }
func (e *reusingEngine) MarshalState() ([]byte, error)   { return nil, nil }
func (e *reusingEngine) RestoreState([]byte) error       { return nil }

// TestAnswerWindowNoAliasing is the regression test for the window-
// answer aliasing bug: Answer used to return a view into the engine's
// full [1..R] series, pinning its backing array and breaking under any
// engine that reuses an internal buffer. The answer must be exactly
// R−L+1 elements with its own backing array.
func TestAnswerWindowNoAliasing(t *testing.T) {
	eng := &reusingEngine{d: 32}
	srv := &Server{eng: eng, d: eng.d, mech: FutureRand}
	const l, r = 7, 19
	a, err := srv.Answer(WindowQuery(l, r))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != r-l+1 || cap(a.Series) != r-l+1 {
		t.Fatalf("window answer len=%d cap=%d, want %d/%d", len(a.Series), cap(a.Series), r-l+1, r-l+1)
	}
	first := append([]float64(nil), a.Series...)
	// A subsequent query makes the engine scribble on its shared buffer;
	// the outstanding answers — window and series alike — must be
	// unaffected.
	series, err := srv.Answer(SeriesQuery())
	if err != nil {
		t.Fatal(err)
	}
	firstSeries := append([]float64(nil), series.Series...)
	for i := range eng.buf {
		eng.buf[i] = -999
	}
	for i := range first {
		if a.Series[i] != first[i] {
			t.Fatalf("window answer value %d changed from %v to %v after the engine reused its buffer", i, first[i], a.Series[i])
		}
	}
	for i := range firstSeries {
		if series.Series[i] != firstSeries[i] {
			t.Fatalf("series answer value %d changed from %v to %v after the engine reused its buffer", i, firstSeries[i], series.Series[i])
		}
	}
	// And mutating a returned answer must not affect a later query.
	a.Series[0] = 1e9
	b, err := srv.Answer(WindowQuery(l, r))
	if err != nil {
		t.Fatal(err)
	}
	if b.Series[0] != first[0] {
		t.Fatalf("mutating a returned answer changed a later query: got %v, want %v", b.Series[0], first[0])
	}
}
