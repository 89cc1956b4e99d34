package cluster

import (
	"net"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/transport"
	"rtf/internal/wire"
)

const (
	hashedTestM    = 10_000
	hashedTestG    = 16
	hashedTestSeed = 0x10f0
)

func hashedClusterEnc() hh.DomainEncoding {
	return hh.LolohaEncoding(hashedTestM, hashedTestG, hashedTestSeed)
}

func startHashedBackend(t *testing.T, d int, enc hh.DomainEncoding, scale float64) (*transport.IngestServer, string, chan error) {
	t.Helper()
	hs := hh.NewHashedDomainServer(d, enc, scale, 2)
	srv := transport.NewIngestServer(transport.NewHashedDomainCollector(hs))
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	return srv, (<-ready).String(), done
}

// hashedMsgs builds a deterministic bucket-tagged ingest stream with
// seed-carrying hellos.
func hashedMsgs(seed uint64, d, users, perUser int) []wire.Msg {
	g := rng.New(seed, 131)
	orders := dyadic.NumOrders(d)
	ms := make([]wire.Msg, 0, users*(perUser+1))
	for u := 0; u < users; u++ {
		b := g.IntN(hashedTestG)
		ms = append(ms, wire.HashedDomainHello(u, b, g.IntN(orders), hashedTestSeed))
		for i := 0; i < perUser; i++ {
			h := g.IntN(orders)
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			ms = append(ms, wire.FromDomainReport(b, protocol.Report{
				User: u, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit,
			}))
		}
	}
	return ms
}

// TestGatewayHashedDomainScatterGather drives seed-pinned ingestion and
// every item-scoped query shape through a hashed-domain gateway over
// three hashed backends, checking every answer bit-for-bit against one
// serial hashed server fed the same messages — including through a
// second, stacked gateway gathering via MsgHashedDomainSums — and that
// a gateway configured under a different epoch seed cannot gather from
// these backends.
func TestGatewayHashedDomainScatterGather(t *testing.T) {
	const (
		d     = 32
		scale = 2.5
		users = 240
	)
	enc0 := hashedClusterEnc()
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, addr, done := startHashedBackend(t, d, enc0, scale)
		addrs = append(addrs, addr)
		defer func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Error(err)
			}
		}()
	}
	gw, err := New(transport.DomainMode(d, enc0, scale), Static(addrs), transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gw.ErrorLog = func(err error) { t.Log("gateway:", err) }
	ready := make(chan net.Addr, 1)
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.ListenAndServe("127.0.0.1:0", ready) }()
	gwAddr := (<-ready).String()
	defer func() {
		gw.Close()
		if err := <-gwDone; err != nil {
			t.Error(err)
		}
	}()

	ms := hashedMsgs(5, d, users, 12)
	serial := hh.NewHashedDomainServer(d, enc0, scale, 1)
	for _, msg := range ms {
		if msg.Type == wire.MsgHashedDomainHello {
			serial.Inner().Register(0, msg.Item, msg.Order)
		} else {
			serial.Inner().Ingest(0, msg.Item, protocol.Report{User: msg.User, Order: msg.Order, J: msg.J, Bit: msg.Bit})
		}
	}

	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	for lo := 0; lo < len(ms); lo += 100 {
		hi := lo + 100
		if hi > len(ms) {
			hi = len(ms)
		}
		if err := enc.EncodeBatch(ms[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	ask := func(q wire.Msg) wire.DomainAnswerFrame {
		t.Helper()
		if err := enc.Encode(q); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		a, err := dec.ReadDomainAnswer()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// Sampled catalogue items across buckets, including past the exact
	// encoding's 4096-row wall.
	for _, x := range []int{0, 1, 17, 4097, hashedTestM - 1} {
		a := ask(wire.DomainQuery(wire.QueryPointItem, x, d, 0, 0))
		if want, _ := serial.EstimateItemAtCached(x, d); a.Values[0] != want {
			t.Fatalf("point-item %d: gateway %v, serial %v", x, a.Values[0], want)
		}
		a = ask(wire.DomainQuery(wire.QuerySeriesItem, x, 0, 0, 0))
		want := serial.EstimateItemSeries(x)
		for i := range want {
			if a.Values[i] != want[i] {
				t.Fatalf("series-item %d t=%d: gateway %v, serial %v", x, i+1, a.Values[i], want[i])
			}
		}
	}
	a := ask(wire.DomainQuery(wire.QueryTopK, 0, d/2, 0, 10))
	top := serial.TopK(d/2, 10)
	for i, ic := range top {
		if a.Items[i] != ic.Item || a.Values[i] != ic.Count {
			t.Fatalf("top-k: gateway %v/%v, serial %v", a.Items, a.Values, top)
		}
	}

	// Stacked gateways: a second hashed gateway over the first gathers
	// bucket state via MsgHashedDomainSums and answers identically.
	gw2, err := New(transport.DomainMode(d, enc0, scale), Static([]string{gwAddr}), transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ready2 := make(chan net.Addr, 1)
	gw2Done := make(chan error, 1)
	go func() { gw2Done <- gw2.ListenAndServe("127.0.0.1:0", ready2) }()
	gw2Addr := (<-ready2).String()
	defer func() {
		gw2.Close()
		if err := <-gw2Done; err != nil {
			t.Error(err)
		}
	}()
	conn2, err := net.Dial("tcp", gw2Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	enc2 := wire.NewEncoder(conn2)
	if err := enc2.Encode(wire.DomainQuery(wire.QueryTopK, 0, d, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := enc2.Flush(); err != nil {
		t.Fatal(err)
	}
	a2, err := wire.NewDecoder(conn2).ReadDomainAnswer()
	if err != nil {
		t.Fatal(err)
	}
	top2 := serial.TopK(d, 3)
	for i, ic := range top2 {
		if a2.Items[i] != ic.Item || a2.Values[i] != ic.Count {
			t.Fatalf("stacked top-k: %v/%v, serial %v", a2.Items, a2.Values, top2)
		}
	}

	// A gateway configured under a different epoch seed must fail to
	// gather: the backends refuse its sums requests rather than hand
	// over bucket counters that mean different items.
	badEnc := hh.LolohaEncoding(hashedTestM, hashedTestG, hashedTestSeed+1)
	gwBad, err := New(transport.DomainMode(d, badEnc, scale), Static(addrs), transport.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	readyBad := make(chan net.Addr, 1)
	gwBadDone := make(chan error, 1)
	go func() { gwBadDone <- gwBad.ListenAndServe("127.0.0.1:0", readyBad) }()
	gwBadAddr := (<-readyBad).String()
	defer func() {
		gwBad.Close()
		if err := <-gwBadDone; err != nil {
			t.Error(err)
		}
	}()
	connBad, err := net.Dial("tcp", gwBadAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer connBad.Close()
	encBad := wire.NewEncoder(connBad)
	if err := encBad.Encode(wire.DomainQuery(wire.QueryPointItem, 0, d, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := encBad.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.NewDecoder(connBad).ReadDomainAnswer(); err == nil {
		t.Fatal("mismatched-seed gateway answered a query from these backends")
	}
}
