package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reports_total")
	g := r.Gauge("depth")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				c.Add(2)
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1000*3 {
		t.Fatalf("counter = %d, want %d", got, 8*1000*3)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %v, want 0", got)
	}
	if r.Counter("reports_total") != c {
		t.Fatal("Counter is not get-or-create")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10)) // 1,2,4,...,512
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if want := 1000.0 * 1001 / 2; h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	// The median of 1..1000 is ~500; its bucket is (256, 512].
	if q := h.Quantile(0.5); q < 256 || q > 512 {
		t.Fatalf("p50 = %v, want within (256, 512]", q)
	}
	// p99 falls in the overflow bucket; the histogram reports its last
	// finite bound.
	if q := h.Quantile(0.99); q != 512 {
		t.Fatalf("p99 = %v, want 512 (last finite bound)", q)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(1)    // lands in the <=1 bucket
	h.Observe(1.5)  // (1, 10]
	h.Observe(10)   // (1, 10]
	h.Observe(10.1) // overflow
	s := h.snapshot()
	want := []int64{1, 2, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, c, want[i], s.Counts)
		}
	}
}

func TestLabel(t *testing.T) {
	got := Label("queries_total", "mechanism", "futurerand", "kind", "point")
	want := `queries_total{mechanism="futurerand",kind="point"}`
	if got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}
	if Label("plain") != "plain" {
		t.Fatal("unlabeled name must pass through")
	}
}

func TestSnapshotHTTPRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.SetInfo("mechanism", "futurerand")
	r.Counter("ingest_reports_total").Add(12345)
	r.Gauge("ingest_queue_depth").Set(3)
	r.GaugeFunc("wal_lag_records", func() float64 { return 7 })
	h := r.Histogram("ingest_batch_size", ExpBuckets(1, 4, 6))
	for i := 0; i < 100; i++ {
		h.Observe(256)
	}

	srv := httptest.NewServer(r)
	defer srv.Close()
	s, err := Fetch(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if s.Info["mechanism"] != "futurerand" {
		t.Fatalf("info = %v", s.Info)
	}
	if s.Counters["ingest_reports_total"] != 12345 {
		t.Fatalf("counter = %d", s.Counters["ingest_reports_total"])
	}
	if s.Gauges["ingest_queue_depth"] != 3 || s.Gauges["wal_lag_records"] != 7 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	hs, ok := s.Histograms["ingest_batch_size"]
	if !ok || hs.Count != 100 || hs.Sum != 25600 {
		t.Fatalf("histogram = %+v", hs)
	}
	if q := hs.Quantile(0.99); q <= 64 || q > 1024 {
		t.Fatalf("scraped p99 = %v, want in (64, 1024] (bucket upper bound of 256)", q)
	}

	// A ?gc=1 scrape forces a collection before sampling but serves the
	// same document.
	s2, err := Fetch(srv.URL + "?gc=1")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Counters["ingest_reports_total"] != 12345 {
		t.Fatalf("gc scrape counter = %d", s2.Counters["ingest_reports_total"])
	}
}

func TestParseSnapshotRejectsMalformedHistogram(t *testing.T) {
	bad := `{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1,"bounds":[1,2],"counts":[1]}}}`
	if _, err := ParseSnapshot(strings.NewReader(bad)); err == nil {
		t.Fatal("want error for counts/bounds mismatch")
	}
	if _, err := ParseSnapshot(strings.NewReader("not json")); err == nil {
		t.Fatal("want error for non-JSON")
	}
}

func TestLoggerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "rtf-serve")
	l.now = func() time.Time { return time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC) }
	l.Info("listening", "addr", "127.0.0.1:7609", "metrics", "127.0.0.1:9609", "note", "two words")
	line := strings.TrimSuffix(buf.String(), "\n")
	kv, ok := ParseLogLine(line)
	if !ok {
		t.Fatalf("line does not parse: %q", line)
	}
	want := map[string]string{
		"ts":        "2026-08-07T12:00:00.000Z",
		"level":     "info",
		"component": "rtf-serve",
		"msg":       "listening",
		"addr":      "127.0.0.1:7609",
		"metrics":   "127.0.0.1:9609",
		"note":      "two words",
	}
	for k, v := range want {
		if kv[k] != v {
			t.Fatalf("key %s = %q, want %q (line %q)", k, kv[k], v, line)
		}
	}
}

func TestLoggerQuotesAwkwardValues(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "x")
	l.Error("boom", "err", `read tcp: i/o timeout on "conn"`, "empty", "")
	kv, ok := ParseLogLine(strings.TrimSuffix(buf.String(), "\n"))
	if !ok {
		t.Fatalf("line does not parse: %q", buf.String())
	}
	if kv["err"] != `read tcp: i/o timeout on "conn"` {
		t.Fatalf("err = %q", kv["err"])
	}
	if v, present := kv["empty"]; !present || v != "" {
		t.Fatalf("empty = %q present=%v", v, present)
	}
	if kv["level"] != "error" {
		t.Fatalf("level = %q", kv["level"])
	}
}

func TestParseLogLineRejectsFreeForm(t *testing.T) {
	for _, line := range []string{
		"rtf-serve: listening on 127.0.0.1:7609",
		"",
		"   ",
		`msg="unterminated`,
	} {
		if kv, ok := ParseLogLine(line); ok {
			t.Fatalf("ParseLogLine(%q) = %v, want not-ok", line, kv)
		}
	}
}

func TestProcessMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterProcessMetrics(r)
	s := r.Snapshot()
	if s.Gauges["process_heap_bytes"] <= 0 {
		t.Fatalf("heap = %v", s.Gauges["process_heap_bytes"])
	}
	if s.Gauges["process_goroutines"] < 1 {
		t.Fatalf("goroutines = %v", s.Gauges["process_goroutines"])
	}
	if v := s.Gauges["process_uptime_seconds"]; v < 0 || math.IsNaN(v) {
		t.Fatalf("uptime = %v", v)
	}
	// RSS is linux-specific; on linux CI it must be positive.
	if v := s.Gauges["process_rss_bytes"]; v < 0 {
		t.Fatalf("rss = %v", v)
	}
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns an upper-bound estimate of the p-quantile (0 < p <=
// 1) from the live buckets: the upper bound of the bucket holding the
// p-th observation, linearly interpolated within the bucket. Values in
// the overflow bucket report the last finite bound. With no
// observations it returns 0.
func (h *Histogram) Quantile(p float64) float64 {
	return h.snapshot().Quantile(p)
}
