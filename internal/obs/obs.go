// Package obs is the runtime-observability substrate of the serving
// binaries: lock-free counters, gauges and histograms collected in a
// Registry, an expvar-style JSON endpoint that exports a point-in-time
// Snapshot over HTTP, a scrape-side parser for that snapshot (the soak
// harness and operational tooling read it back), and a small logfmt
// structured logger whose lines are machine-parseable — rtf-sim learns
// the listen and metrics addresses of the processes it spawns by
// parsing their startup log lines.
//
// The instruments are deliberately minimal: a counter is one atomic
// add, a gauge is one atomic store, a histogram observation is two
// atomic adds (bucket + count) plus a CAS loop for the sum. Nothing on
// an ingest hot path ever takes a lock or allocates; the Registry's
// mutex guards only instrument creation and snapshotting.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are a caller bug but not checked on
// the hot path).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (float64, stored as bits).
type Gauge struct {
	bits atomic.Uint64
}

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram: observations land
// in the first bucket whose upper bound is >= the value, with an
// implicit +Inf overflow bucket at the end. Bounds are set at creation
// and never change, so Observe is lock-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. An implicit +Inf bucket catches overflow.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the standard shape for latencies and sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot copies the histogram's live state.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Label renders a metric name with label pairs in the given order:
// Label("queries_total", "mechanism", "futurerand", "kind", "point")
// -> `queries_total{mechanism="futurerand",kind="point"}`. The rendered
// string is the registry key, so identical label sets must be passed in
// identical order.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for %s: %v", name, kv))
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a named collection of instruments. All methods are safe
// for concurrent use; instrument handles are get-or-create, so wiring
// code can look the same instrument up from several places.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
	info       map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() float64),
		hists:      make(map[string]*Histogram),
		info:       make(map[string]string),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a computed gauge, evaluated at snapshot time.
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later bounds are ignored for an existing name).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// SetInfo records a static key/value (mechanism name, listen address,
// build parameters) exported verbatim in every snapshot.
func (r *Registry) SetInfo(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.info[key] = value
}

// Snapshot copies every instrument's current value. Gauge functions are
// evaluated inside the call but outside the registry lock, so a slow
// gauge (reading /proc, say) never blocks instrument creation.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Info:       make(map[string]string, len(r.info)),
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.gaugeFuncs)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for k, v := range r.info {
		s.Info[k] = v
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.snapshot()
	}
	funcs := make(map[string]func() float64, len(r.gaugeFuncs))
	for k, fn := range r.gaugeFuncs {
		funcs[k] = fn
	}
	r.mu.Unlock()
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	return s
}
