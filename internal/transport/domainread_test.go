package transport

import (
	"errors"
	"testing"
	"time"

	"rtf/internal/hh"
	"rtf/internal/obs"
	"rtf/internal/wire"
)

// Parameters of the domain-read pins: an exact domain of 8 items and a
// loloha catalogue of 5000 items hashed to 16 buckets, both at d = 16.
const (
	readPinD     = 16
	readPinM     = 8
	readPinCat   = 5000
	readPinG     = 16
	readPinSeed  = 0x7ead
	readPinScale = 2.0
)

// readPinStores builds a fresh store per encoding, with the hello that
// registers one user on it.
func readPinStores() []struct {
	name  string
	store *Collector
	hello wire.Msg
} {
	enc := hh.LolohaEncoding(readPinCat, readPinG, readPinSeed)
	return []struct {
		name  string
		store *Collector
		hello wire.Msg
	}{
		{"exact", NewDomainCollector(hh.NewDomainServer(readPinD, readPinM, readPinScale, 2)), wire.DomainHello(1, 3, 0)},
		{"hashed", NewHashedDomainCollector(hh.NewHashedDomainServer(readPinD, enc, readPinScale, 2)), wire.HashedDomainHello(1, 3, 0, readPinSeed)},
	}
}

// serveReadPins serves store on loopback with metrics, sending every
// connection error to the returned channel.
func serveReadPins(t *testing.T, store Store) (addr string, errs <-chan error, srv *IngestServer, closeSrv func()) {
	t.Helper()
	ch := make(chan error, 16)
	srv = NewIngestServer(store)
	srv.ErrorLog = func(err error) { ch <- err }
	srv.Metrics = NewServerMetrics(obs.NewRegistry())
	addr, closeSrv = startServer(t, srv)
	return addr, ch, srv, closeSrv
}

// TestDomainReadRefusalText pins, per encoding, the text of every
// refusal a client can trigger with a domain read, and that the reads
// next to those limits are answered. Each read is checked twice: through
// the mode's ValidateRead (when the frame is one of the mode's reads),
// and, when it encodes, sent alone on a fresh connection to a live
// IngestServer, which must fail that connection with the same text — or
// answer it, for the rows that want no error. The strings were generated
// by the code before the exact and hashed read paths were merged; a
// changed string is a changed wire contract, not a test to update.
func TestDomainReadRefusalText(t *testing.T) {
	cases := []struct {
		enc   string
		m     wire.Msg
		want  string
		items int // answered top-k: the items it holds
	}{
		{"exact", wire.DomainQuery(wire.QueryPointItem, 8, 1, 0, 0), "transport: point-item query item 8 out of range [0..8)", 0},
		{"exact", wire.DomainQuery(wire.QueryPointItem, -1, 1, 0, 0), "transport: point-item query item -1 out of range [0..8)", 0},
		{"exact", wire.DomainQuery(wire.QueryPointItem, 7, 0, 0, 0), "transport: point-item query time 0 out of range [1..16]", 0},
		{"exact", wire.DomainQuery(wire.QueryPointItem, 7, 17, 0, 0), "transport: point-item query time 17 out of range [1..16]", 0},
		{"exact", wire.DomainQuery(wire.QuerySeriesItem, 8, 0, 0, 0), "transport: series-item query item 8 out of range [0..8)", 0},
		{"exact", wire.DomainQuery(wire.QuerySeriesItem, -1, 0, 0, 0), "transport: series-item query item -1 out of range [0..8)", 0},
		{"exact", wire.DomainQuery(wire.QueryTopK, 0, 0, 0, 3), "transport: top-k query time 0 out of range [1..16]", 0},
		{"exact", wire.DomainQuery(wire.QueryTopK, 0, 17, 0, 3), "transport: top-k query time 17 out of range [1..16]", 0},
		{"exact", wire.DomainQuery(wire.QueryTopK, 0, 1, 0, -1), "transport: top-k query with negative k -1", 0},
		{"exact", wire.DomainQuery(wire.QueryTopK, 0, 16, 0, wire.MaxAnswerLen+1), "", 8},
		{"exact", wire.DomainQuery(wire.QueryTopK, 0, 16, 0, 3), "", 3},
		{"exact", wire.DomainQuery(wire.QueryKind(99), 0, 1, 0, 1), "transport: unknown domain query kind 99", 0},
		{"exact", wire.DomainQuery(wire.QueryPoint, 0, 1, 0, 1), "transport: unknown domain query kind 1", 0},
		{"exact", wire.Msg{Type: wire.MsgDomainSums, L: 1, R: 17}, "transport: sums scope [1..17] invalid for d=16", 0},
		{"exact", wire.HashedDomainSums(readPinCat, readPinG, readPinSeed), "transport: domain collector cannot ingest message type 25", 0},
		{"exact", wire.QueryV2(wire.QueryPoint, 1, 0), "transport: domain collector cannot ingest message type 6", 0},

		{"hashed", wire.DomainQuery(wire.QueryPointItem, 5000, 1, 0, 0), "transport: point-item query item 5000 out of range [0..5000)", 0},
		{"hashed", wire.DomainQuery(wire.QueryPointItem, -1, 1, 0, 0), "transport: point-item query item -1 out of range [0..5000)", 0},
		{"hashed", wire.DomainQuery(wire.QueryPointItem, 4999, 0, 0, 0), "transport: point-item query time 0 out of range [1..16]", 0},
		{"hashed", wire.DomainQuery(wire.QueryPointItem, 4999, 17, 0, 0), "transport: point-item query time 17 out of range [1..16]", 0},
		{"hashed", wire.DomainQuery(wire.QuerySeriesItem, 5000, 0, 0, 0), "transport: series-item query item 5000 out of range [0..5000)", 0},
		{"hashed", wire.DomainQuery(wire.QuerySeriesItem, -1, 0, 0, 0), "transport: series-item query item -1 out of range [0..5000)", 0},
		{"hashed", wire.DomainQuery(wire.QueryTopK, 0, 0, 0, 3), "transport: top-k query time 0 out of range [1..16]", 0},
		{"hashed", wire.DomainQuery(wire.QueryTopK, 0, 17, 0, 3), "transport: top-k query time 17 out of range [1..16]", 0},
		{"hashed", wire.DomainQuery(wire.QueryTopK, 0, 1, 0, -1), "transport: top-k query with negative k -1", 0},
		{"hashed", wire.DomainQuery(wire.QueryTopK, 0, 16, 0, wire.MaxAnswerLen+1), "transport: top-k query k=1048577 exceeds answer limit 1048576", 0},
		{"hashed", wire.DomainQuery(wire.QueryTopK, 0, 16, 0, wire.MaxAnswerLen), "", readPinCat},
		{"hashed", wire.DomainQuery(wire.QueryKind(99), 0, 1, 0, 1), "transport: unknown domain query kind 99", 0},
		{"hashed", wire.DomainQuery(wire.QueryPoint, 0, 1, 0, 1), "transport: unknown domain query kind 1", 0},
		{"hashed", wire.HashedDomainSums(readPinCat, readPinG, readPinSeed+1), "hashed sums request for m=5000 g=16 seed=32430, this node encodes m=5000 g=16 under a different seed", 0},
		{"hashed", wire.HashedDomainSums(readPinCat+1, readPinG, readPinSeed), "hashed sums request for m=5001 g=16 seed=32429, this node encodes m=5000 g=16 under a different seed", 0},
		{"hashed", wire.HashedDomainSums(readPinCat, readPinG-1, readPinSeed), "hashed sums request for m=5000 g=15 seed=32429, this node encodes m=5000 g=16 under a different seed", 0},
		{"hashed", wire.Msg{Type: wire.MsgHashedDomainSums, Item: readPinCat, K: readPinG, Seed: readPinSeed, L: 1, R: 17}, "transport: sums scope [1..17] invalid for d=16", 0},
		{"hashed", wire.DomainSums(), "transport: hashed domain collector cannot ingest message type 14", 0},
		{"hashed", wire.QueryV2(wire.QueryPoint, 1, 0), "transport: hashed domain collector cannot ingest message type 6", 0},
	}
	for _, s := range readPinStores() {
		mode := s.store.Mode()
		addr, errs, _, closeSrv := serveReadPins(t, s.store)
		for _, c := range cases {
			if c.enc != s.name {
				continue
			}
			if mode.Reads().Has(c.m.Type) {
				err := mode.ValidateRead(c.m)
				if got := errText(err); got != c.want {
					t.Errorf("%s ValidateRead(%+v) = %q, want %q", s.name, c.m, got, c.want)
				}
			}
			if _, err := appendMsg(nil, &c.m); err != nil {
				continue // no client can send it
			}
			conn, enc, dec := dialIngest(t, addr)
			if err := enc.Encode(c.m); err != nil {
				t.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			if c.want == "" {
				a, err := dec.ReadDomainAnswer()
				if err != nil {
					t.Errorf("%s served %+v: %v, want an answer", s.name, c.m, err)
				} else if len(a.Items) != c.items || len(a.Values) != c.items {
					t.Errorf("%s served %+v with %d items / %d values, want %d", s.name, c.m, len(a.Items), len(a.Values), c.items)
				}
				conn.Close()
				continue
			}
			select {
			case err := <-errs:
				if got := errText(errors.Unwrap(err)); got != c.want {
					t.Errorf("%s served %+v: connection failed with %q, want %q", s.name, c.m, got, c.want)
				}
			case <-time.After(5 * time.Second):
				t.Errorf("%s served %+v: no connection error, want %q", s.name, c.m, c.want)
			}
			conn.Close()
		}
		closeSrv()
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDomainReadCacheCounters pins, per encoding and read kind, what a
// cold read (right after an ingest run advanced the version) and then
// a warm one add to the query-cache counters. The exact encoding's
// memo serves top-k only; the hashed decoder's serves top-k and
// point-item. The deltas were generated by the code before the exact
// and hashed read paths were merged, and are not to be regenerated.
func TestDomainReadCacheCounters(t *testing.T) {
	type delta struct{ eligible, hits, misses int64 }
	reads := []struct {
		kind string
		m    wire.Msg
	}{
		{"point_item", wire.DomainQuery(wire.QueryPointItem, 3, 5, 0, 0)},
		{"series_item", wire.DomainQuery(wire.QuerySeriesItem, 3, 0, 0, 0)},
		{"topk", wire.DomainQuery(wire.QueryTopK, 0, 5, 0, 4)},
		{"sums", wire.Msg{}}, // the mode's own sums request, filled in below
	}
	want := map[string][2]delta{ // per encoding/kind: cold, warm
		"exact/point_item":   {{0, 0, 0}, {0, 0, 0}},
		"exact/series_item":  {{0, 0, 0}, {0, 0, 0}},
		"exact/topk":         {{1, 0, 1}, {1, 1, 0}},
		"exact/sums":         {{0, 0, 0}, {0, 0, 0}},
		"hashed/point_item":  {{1, 0, 1}, {1, 1, 0}},
		"hashed/series_item": {{0, 0, 0}, {0, 0, 0}},
		"hashed/topk":        {{1, 0, 1}, {1, 1, 0}},
		"hashed/sums":        {{0, 0, 0}, {0, 0, 0}},
	}
	for _, s := range readPinStores() {
		mode := s.store.Mode()
		addr, errs, srv, closeSrv := serveReadPins(t, s.store)
		conn, enc, dec := dialIngest(t, addr)
		counters := func() delta {
			c := srv.Metrics.Registry().Snapshot().Counters
			return delta{c["query_cache_eligible_total"], c["query_cache_hits_total"], c["query_cache_misses_total"]}
		}
		for _, r := range reads {
			m := r.m
			if r.kind == "sums" {
				m = mode.SumsRequest()
			}
			var got [2]delta
			// The hello is applied before the read behind it, so the
			// first read sees a new version.
			if err := enc.Encode(s.hello); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				before := counters()
				if err := enc.Encode(m); err != nil {
					t.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					t.Fatal(err)
				}
				var err error
				if r.kind == "sums" {
					_, err = mode.ReadSums(dec)
				} else {
					_, err = dec.ReadDomainAnswer()
				}
				if err != nil {
					t.Fatalf("%s %s read %d: %v", s.name, r.kind, i, err)
				}
				after := counters()
				got[i] = delta{after.eligible - before.eligible, after.hits - before.hits, after.misses - before.misses}
			}
			if key := s.name + "/" + r.kind; got != want[key] {
				t.Errorf("%s cache deltas (cold, warm) = %+v, want %+v", key, got, want[key])
			}
		}
		conn.Close()
		closeSrv()
		select {
		case err := <-errs:
			t.Errorf("%s: connection error %v", s.name, err)
		default:
		}
	}
}
