package cluster

import (
	"fmt"
	"net"
	"testing"

	"rtf/internal/membership"
	"rtf/internal/obs"
	"rtf/internal/transport"
)

// This file is the placement axis of the gateway tests: the two ways a
// gateway's counters are placed, as inputs. A test that is about the read
// path, not about a placement, ranges over testPlacements.

const (
	testShards = 4 // virtual shards of the member placement
	testK      = 2 // replicas of each
)

// testPlacement is one placement and the backends that go with it.
type testPlacement struct {
	name  string
	label string // the front's queries_total mechanism label under the Boolean mode
	// replicas is how many stores hold each ingested message; perGather
	// how many sums frames one gather of every shard fetches.
	replicas, perGather int
	// stores builds the backends' stores for a mode; place is the
	// placement over their addresses.
	stores func(mode transport.Mode) []transport.Store
	place  func(addrs []string) Placement
}

var testPlacements = []testPlacement{
	{
		name: "static", label: "boolean", replicas: 1, perGather: 2,
		stores: func(mode transport.Mode) []transport.Store {
			return []transport.Store{transport.NewCollector(mode, 2), transport.NewCollector(mode, 2)}
		},
		place: Static,
	},
	{
		name: "members", label: "member", replicas: testK, perGather: testShards * testK,
		stores: func(mode transport.Mode) []transport.Store {
			stores := make([]transport.Store, 3)
			for i := range stores {
				stores[i] = transport.NewShardMap(mode, testShards, fmt.Sprintf("n%d", i))
			}
			return stores
		},
		place: func(addrs []string) Placement {
			members := make([]membership.Member, len(addrs))
			for i, a := range addrs {
				members[i] = membership.Member{ID: fmt.Sprintf("n%d", i), Addr: a}
			}
			return Members(testShards, testK, members)
		},
	},
}

// placed is a gateway over one test placement's backends, in process.
type placed struct {
	gw *Gateway
	// applied sums the ingest messages the backends' stores hold; tap
	// sees every frame they write back to the gateway.
	applied func() (hellos, reports int64)
	tap     *backendTap
	stop    func() // the backends; the gateway is the caller's to serve and close
}

// build starts the placement's backends for a mode and builds — without
// serving it — the gateway over them, its view announced.
func (pl testPlacement) build(t *testing.T, mode transport.Mode, opts transport.ClusterOptions) placed {
	t.Helper()
	addrs, applied, tap, stop := startBackends(t, pl.stores(mode))
	gw, err := New(mode, pl.place(addrs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !gw.place.whole {
		if err := gw.AnnounceView(); err != nil {
			t.Fatal(err)
		}
	}
	return placed{gw: gw, applied: applied, tap: tap, stop: stop}
}

// readCluster is a served, metered gateway over one test placement.
type readCluster struct {
	placed
	reg  *obs.Registry
	addr string
}

// serve builds the placement's gateway (configure, when non-nil, sees it
// before it accepts connections), serves it on a loopback port and stops
// everything when the test ends.
func (pl testPlacement) serve(t *testing.T, mode transport.Mode, opts transport.ClusterOptions, configure func(*Gateway)) *readCluster {
	t.Helper()
	c := &readCluster{placed: pl.build(t, mode, opts), reg: obs.NewRegistry()}
	c.gw.ErrorLog = func(err error) { t.Log("gateway:", err) }
	c.gw.Metrics = transport.NewServerMetrics(c.reg)
	if configure != nil {
		configure(c.gw)
	}
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- c.gw.ListenAndServe("127.0.0.1:0", ready) }()
	c.addr = (<-ready).String()
	t.Cleanup(func() {
		c.gw.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
		c.stop()
	})
	return c
}
