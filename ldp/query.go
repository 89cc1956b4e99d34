package ldp

import "fmt"

// QueryKind discriminates the shapes a Server can be asked about. The
// numeric values match the wire encoding's (internal/wire.QueryKind).
type QueryKind int

// Query kinds.
const (
	// Point asks for â[t], the estimated count at one time.
	Point QueryKind = iota + 1
	// Change asks for an unbiased estimate of a[R] − a[L−1], the net
	// change over [L..R], from the direct dyadic cover of the range
	// (proportionally less noise than differencing two point
	// estimates on mechanisms with dyadic structure).
	Change
	// Series asks for the full series â[1..d].
	Series
	// Window asks for â[L..R], one estimate per period in the range.
	Window
	// PointItem asks for f̂(Item, T), one item's estimated frequency at
	// one time — answered by a DomainServer.
	PointItem
	// SeriesItem asks for f̂(Item, 1..d), one item's full series —
	// answered by a DomainServer.
	SeriesItem
	// TopK asks for the K items with the largest estimated frequency
	// at time T, in decreasing order with ties broken toward the
	// smaller item — answered by a DomainServer.
	TopK
)

// String names the kind for error messages and tables.
func (k QueryKind) String() string {
	switch k {
	case Point:
		return "point"
	case Change:
		return "change"
	case Series:
		return "series"
	case Window:
		return "window"
	case PointItem:
		return "point-item"
	case SeriesItem:
		return "series-item"
	case TopK:
		return "top-k"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Query is one request against a Server (Boolean kinds) or a
// DomainServer (item-scoped kinds), answered online through the
// respective Answer method. Construct queries with PointQuery,
// ChangeQuery, SeriesQuery, WindowQuery, PointItemQuery,
// SeriesItemQuery and TopKQuery.
type Query struct {
	Kind QueryKind
	// T is the time of a Point, PointItem or TopK query.
	T int
	// L, R bound the range of a Change or Window query (1-based,
	// inclusive).
	L, R int
	// Item scopes a PointItem or SeriesItem query to one domain item.
	Item int
	// K is the item count of a TopK query.
	K int
}

// PointQuery asks for â[t].
func PointQuery(t int) Query { return Query{Kind: Point, T: t} }

// ChangeQuery asks for the net change over [l..r].
func ChangeQuery(l, r int) Query { return Query{Kind: Change, L: l, R: r} }

// SeriesQuery asks for the full series â[1..d].
func SeriesQuery() Query { return Query{Kind: Series} }

// WindowQuery asks for the per-period estimates â[l..r].
func WindowQuery(l, r int) Query { return Query{Kind: Window, L: l, R: r} }

// PointItemQuery asks a DomainServer for f̂(item, t).
func PointItemQuery(item, t int) Query { return Query{Kind: PointItem, Item: item, T: t} }

// SeriesItemQuery asks a DomainServer for f̂(item, 1..d).
func SeriesItemQuery(item int) Query { return Query{Kind: SeriesItem, Item: item} }

// TopKQuery asks a DomainServer for the k most frequent items at time
// t.
func TopKQuery(t, k int) Query { return Query{Kind: TopK, T: t, K: k} }

// Answer is the result of a query: scalar kinds (Point, Change,
// PointItem) fill Value; vector kinds (Series, Window, SeriesItem)
// fill Series; TopK fills Items and the parallel Series values.
type Answer struct {
	// Query echoes the request.
	Query Query
	// Value is the scalar answer of a Point, Change or PointItem query.
	Value float64
	// Series is the vector answer of a Series, Window or SeriesItem
	// query; for TopK it holds the estimated frequency of each
	// returned item, parallel to Items.
	Series []float64
	// Items is the TopK answer's item list, most frequent first.
	Items []int
}

// Answer is the unified query entry point: one call answers any query
// shape for whatever mechanism the server was built with. Estimates are
// valid online once the latest time they touch has passed (all reports
// for that time arrived).
func (s *Server) Answer(q Query) (Answer, error) {
	switch q.Kind {
	case Point:
		if q.T < 1 || q.T > s.d {
			return Answer{}, fmt.Errorf("ldp: time %d out of range [1..%d]", q.T, s.d)
		}
		return Answer{Query: q, Value: s.eng.EstimateAt(q.T)}, nil
	case Change:
		if q.L < 1 || q.R > s.d || q.L > q.R {
			return Answer{}, fmt.Errorf("ldp: range [%d..%d] invalid for d=%d", q.L, q.R, s.d)
		}
		return Answer{Query: q, Value: s.eng.EstimateChange(q.L, q.R)}, nil
	case Series:
		// Fresh copy for the same reason as Window below: the engine may
		// reuse an internal buffer across queries.
		return Answer{Query: q, Series: append([]float64(nil), s.eng.EstimateSeries()...)}, nil
	case Window:
		if q.L < 1 || q.R > s.d || q.L > q.R {
			return Answer{}, fmt.Errorf("ldp: range [%d..%d] invalid for d=%d", q.L, q.R, s.d)
		}
		// Clip to exactly R−L+1 fresh elements: slicing the engine's
		// series would alias (and pin) its full [1..R] backing array,
		// and an engine reusing an internal buffer would then corrupt
		// this answer on the next query.
		return Answer{Query: q, Series: append(make([]float64, 0, q.R-q.L+1), s.eng.EstimateSeriesTo(q.R)[q.L-1:]...)}, nil
	case PointItem, SeriesItem, TopK:
		return Answer{}, fmt.Errorf("ldp: item-scoped query %s requires a domain server (NewDomainServer)", q.Kind)
	default:
		return Answer{}, fmt.Errorf("ldp: unknown query kind %d", int(q.Kind))
	}
}
