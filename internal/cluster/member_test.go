package cluster

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rtf/internal/hh"
	"rtf/internal/membership"
	"rtf/internal/obs"
	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/internal/wire"
)

// memberBackend is one in-process membership-mode rtf-serve.
type memberBackend struct {
	id   string
	sm   *transport.ShardMap
	srv  *transport.IngestServer
	addr string
	done chan error
}

func startMemberBackend(t *testing.T, d int, scale float64, numShards int, id string) *memberBackend {
	t.Helper()
	sm := transport.NewShardMap(transport.BoolMode(d, scale), numShards, id)
	srv := transport.NewIngestServer(sm)
	srv.Metrics = transport.NewServerMetrics(obs.NewRegistry()) // conns_active
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	return &memberBackend{id: id, sm: sm, srv: srv, addr: (<-ready).String(), done: done}
}

func (b *memberBackend) stop(t *testing.T) {
	t.Helper()
	if err := b.srv.Close(); err != nil {
		t.Error(err)
	}
	if err := <-b.done; err != nil {
		t.Error(err)
	}
}

func (b *memberBackend) member() membership.Member {
	return membership.Member{ID: b.id, Addr: b.addr}
}

// fastOpts keeps backend-death paths quick in tests.
func fastOpts() transport.ClusterOptions {
	return transport.ClusterOptions{DialAttempts: 2, BackoffBase: 5 * time.Millisecond}
}

func startMemberGateway(t *testing.T, d int, scale float64, numShards, k int, members []membership.Member) (*Gateway, string, chan error) {
	t.Helper()
	gw, err := New(transport.BoolMode(d, scale), Members(numShards, k, members), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	gw.ErrorLog = func(err error) { t.Log("member gateway:", err) }
	if err := gw.AnnounceView(); err != nil {
		t.Fatal(err)
	}
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- gw.ListenAndServe("127.0.0.1:0", ready) }()
	return gw, (<-ready).String(), done
}

// checkAllShapes asks every query shape on the connection and compares
// each answer bit-for-bit against the serial reference.
func checkAllShapes(t *testing.T, enc *wire.Encoder, dec *wire.Decoder, serial *protocol.Server, d int) {
	t.Helper()
	for _, tt := range []int{1, d / 2, d} {
		if err := enc.Encode(wire.QueryV2(wire.QueryPoint, tt, 0)); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		a, err := dec.ReadAnswer()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Values) != 1 || a.Values[0] != serial.EstimateAt(tt) {
			t.Fatalf("point at %d: %+v, want %v", tt, a, serial.EstimateAt(tt))
		}
	}
	checks := []struct {
		q    wire.Msg
		want []float64
	}{
		{wire.QueryV2(wire.QueryPoint, d/4, d/4), []float64{serial.EstimateAt(d / 4)}},
		{wire.QueryV2(wire.QueryChange, 2, d-3), []float64{serial.EstimateChange(2, d-3)}},
		{wire.QueryV2(wire.QuerySeries, 0, 0), serial.EstimateSeries()},
		{wire.QueryV2(wire.QueryWindow, 3, d/2), serial.EstimateSeries()[2 : d/2]},
	}
	for _, c := range checks {
		if err := enc.Encode(c.q); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		a, err := dec.ReadAnswer()
		if err != nil {
			t.Fatalf("%s: %v", c.q.Kind, err)
		}
		if len(a.Values) != len(c.want) {
			t.Fatalf("%s: %d values, want %d", c.q.Kind, len(a.Values), len(c.want))
		}
		for i := range c.want {
			if a.Values[i] != c.want[i] {
				t.Fatalf("%s value %d: gateway %v, serial %v", c.q.Kind, i, a.Values[i], c.want[i])
			}
		}
	}
}

// TestMemberGatewayQuorumEndToEnd drives replicated ingestion and every
// query shape through a member gateway over three membership-mode
// backends, checks answers bit-for-bit against a serial server, checks
// that every shard really is K-way replicated, then kills one backend
// and checks the quorum read still answers exactly.
func TestMemberGatewayQuorumEndToEnd(t *testing.T) {
	const (
		d     = 64
		scale = 3.25
		S     = 16
		K     = 2
		users = 200
	)
	var backends []*memberBackend
	var members []membership.Member
	for _, id := range []string{"b0", "b1", "b2"} {
		b := startMemberBackend(t, d, scale, S, id)
		backends = append(backends, b)
		members = append(members, b.member())
	}
	gw, gwAddr, gwDone := startMemberGateway(t, d, scale, S, K, members)

	// Every backend learned the announced view.
	for _, b := range backends {
		if b.sm.Epoch() != 1 {
			t.Fatalf("backend %s epoch %d after announce", b.id, b.sm.Epoch())
		}
		if b.sm.OwnedShards() == 0 {
			t.Fatalf("backend %s owns no shards", b.id)
		}
	}

	ms := clusterMsgs(7, d, users, 10)
	serial := protocol.NewServer(d, scale)
	for _, m := range ms {
		if m.Type == wire.MsgHello {
			serial.Register(int(m.Order))
		} else {
			serial.Ingest(m.Report())
		}
	}

	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	for lo := 0; lo < len(ms); lo += 83 {
		hi := min(lo+83, len(ms))
		if err := enc.EncodeBatch(ms[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	checkAllShapes(t, enc, dec, serial, d)

	// MsgSums folds the chosen replicas to the serial raw sums.
	if err := enc.Encode(wire.Sums()); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := dec.ReadSums()
	if err != nil {
		t.Fatal(err)
	}
	if users := f.Counters[0]; users != int64(serial.Users()) {
		t.Fatalf("sums users %d, want %d", users, serial.Users())
	}

	// K-way replication: every shard is held by exactly K backends, and
	// replicas of a shard agree exactly.
	view := gw.View()
	for sh := 0; sh < S; sh++ {
		var holders []*memberBackend
		for _, b := range backends {
			if view.Owns(b.id, sh) {
				holders = append(holders, b)
			}
		}
		if len(holders) != K {
			t.Fatalf("shard %d has %d owners, want %d", sh, len(holders), K)
		}
		a, _, _ := holders[0].sm.ShardSums(sh, wire.Scope{}).Row(0)
		b2, _, _ := holders[1].sm.ShardSums(sh, wire.Scope{}).Row(0)
		if a != b2 {
			t.Fatalf("shard %d replicas disagree: %d vs %d users", sh, a, b2)
		}
		// Non-owners hold nothing for the shard.
		for _, b := range backends {
			if view.Owns(b.id, sh) {
				continue
			}
			if users, _, _ := b.sm.ShardSums(sh, wire.Scope{}).Row(0); users != 0 {
				t.Fatalf("non-owner %s holds %d users of shard %d", b.id, users, sh)
			}
		}
	}

	// Kill one backend outright: quorum reads must still answer every
	// shape bit-for-bit from the surviving replicas. A death is not a
	// write, so what the gateway has gathered is still exact and a read
	// alone would not go and look; one forwarded hello — on a shard the
	// dead member does not own — opens a new ingest epoch.
	backends[1].stop(t)
	newcomer := users
	for view.Owns("b1", membership.ShardOf(newcomer, S)) {
		newcomer++
	}
	serial.Register(0)
	if err := enc.Encode(wire.Hello(newcomer, 0)); err != nil {
		t.Fatal(err)
	}
	checkAllShapes(t, enc, dec, serial, d)
	if gw.ShortReads() == 0 {
		t.Error("no short reads counted with a dead replica")
	}
	if gw.Divergences() != 0 {
		t.Errorf("%d divergences on a healthy cluster", gw.Divergences())
	}

	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-gwDone; err != nil {
		t.Fatal(err)
	}
	backends[0].stop(t)
	backends[2].stop(t)
}

// TestMemberGatewayReshard exercises the full epoch dance on a live
// session: join a member mid-stream (asserting minimal movement),
// ingest more, drain a member and stop it, and check exactness after
// every step.
func TestMemberGatewayReshard(t *testing.T) {
	const (
		d     = 32
		scale = 2.5
		S     = 16
		K     = 2
	)
	var backends []*memberBackend
	var members []membership.Member
	for _, id := range []string{"b0", "b1", "b2"} {
		b := startMemberBackend(t, d, scale, S, id)
		backends = append(backends, b)
		members = append(members, b.member())
	}
	gw, gwAddr, gwDone := startMemberGateway(t, d, scale, S, K, members)

	serial := protocol.NewServer(d, scale)
	apply := func(ms []wire.Msg) {
		for _, m := range ms {
			if m.Type == wire.MsgHello {
				serial.Register(int(m.Order))
			} else {
				serial.Ingest(m.Report())
			}
		}
	}
	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)

	phase1 := clusterMsgs(11, d, 120, 8)
	apply(phase1)
	if err := enc.EncodeBatch(phase1); err != nil {
		t.Fatal(err)
	}
	checkAllShapes(t, enc, dec, serial, d)

	// Join: add b3. The reported transfer count must equal the
	// rendezvous plan diff, which moves only ~S·K/N placements.
	b3 := startMemberBackend(t, d, scale, S, "b3")
	backends = append(backends, b3)
	oldView := gw.View()
	joined := append(append([]membership.Member{}, members...), b3.member())
	newView := membership.View{Epoch: oldView.Epoch + 1, K: K, NumShards: S, Members: joined}
	wantPlan := membership.Plan(oldView, newView)
	res, err := gw.Reshard(joined, K)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != oldView.Epoch+1 || res.Transfers != len(wantPlan) {
		t.Fatalf("reshard result %+v, want epoch %d transfers %d", res, oldView.Epoch+1, len(wantPlan))
	}
	if res.Transfers == 0 || res.Transfers > S*K/2 {
		t.Fatalf("join moved %d placements of %d — not minimal movement", res.Transfers, S*K)
	}
	if b3.sm.Epoch() != res.Epoch {
		t.Fatalf("joined backend epoch %d, want %d", b3.sm.Epoch(), res.Epoch)
	}
	// The same live session keeps working across the epoch.
	checkAllShapes(t, enc, dec, serial, d)

	phase2 := clusterMsgs(13, d, 90, 8)
	apply(phase2)
	if err := enc.EncodeBatch(phase2); err != nil {
		t.Fatal(err)
	}
	checkAllShapes(t, enc, dec, serial, d)

	// Drain: remove b1, then stop it. Its shards were handed off during
	// the reshard, so answers stay exact without it.
	var drained []membership.Member
	for _, b := range backends {
		if b.id != "b1" {
			drained = append(drained, b.member())
		}
	}
	res2, err := gw.Reshard(drained, K)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epoch != res.Epoch+1 {
		t.Fatalf("drain epoch %d, want %d", res2.Epoch, res.Epoch+1)
	}
	// Once the one live session has adopted the new view, the gateway
	// holds nothing of the departed member: its pool was dropped by the
	// reshard, and the session's lease must be closed, not parked in a
	// pool re-created for it.
	checkAllShapes(t, enc, dec, serial, d)
	for deadline := time.Now().Add(5 * time.Second); backends[1].srv.Metrics.ActiveConns.Value() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("drained member still has %v open connections from the gateway", backends[1].srv.Metrics.ActiveConns.Value())
		}
		time.Sleep(time.Millisecond)
	}
	backends[1].stop(t)
	checkAllShapes(t, enc, dec, serial, d)

	phase3 := clusterMsgs(17, d, 60, 8)
	apply(phase3)
	if err := enc.EncodeBatch(phase3); err != nil {
		t.Fatal(err)
	}
	checkAllShapes(t, enc, dec, serial, d)

	if gw.TransfersTotal() != int64(res.Transfers+res2.Transfers) {
		t.Errorf("TransfersTotal %d, want %d", gw.TransfersTotal(), res.Transfers+res2.Transfers)
	}

	conn.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-gwDone; err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		if b.id != "b1" {
			b.stop(t)
		}
	}
}

// TestMemberGatewayDivergence corrupts one replica's shard state and
// checks the quorum read detects the exact-integer mismatch instead of
// silently answering from either copy.
func TestMemberGatewayDivergence(t *testing.T) {
	const d, scale, S, K = 32, 2.0, 4, 2
	b0 := startMemberBackend(t, d, scale, S, "b0")
	b1 := startMemberBackend(t, d, scale, S, "b1")
	defer b0.stop(t)
	defer b1.stop(t)
	gw, gwAddr, gwDone := startMemberGateway(t, d, scale, S, K,
		[]membership.Member{b0.member(), b1.member()})

	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	ms := clusterMsgs(3, d, 50, 6)
	if err := enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	// Fence so both replicas hold the data, then corrupt b1's shard 0
	// with an empty state.
	if err := enc.Encode(wire.QueryV2(wire.QueryPoint, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadAnswer(); err != nil {
		t.Fatal(err)
	}
	empty := transport.BoolMode(d, scale).NewState(1).MarshalState()
	if err := b1.sm.InstallShard(0, empty); err != nil {
		t.Fatal(err)
	}
	// The corruption went behind the gateway's back: its cache is exact
	// only while every write passes through it, so nothing tells it to
	// look again. One forwarded hello opens a new ingest epoch — the rule
	// the static cache tests follow — and the read behind it must notice.
	if err := enc.Encode(wire.Hello(1000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(wire.QueryV2(wire.QueryPoint, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.ReadAnswer(); err == nil {
		t.Fatal("query answered despite diverged replicas")
	}
	if gw.Divergences() == 0 {
		t.Error("divergence not counted")
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-gwDone; err != nil {
		t.Fatal(err)
	}
}

// TestMemberGatewayRefusesForeignEncoding pins what stands where the
// startup refusal of membership × hashed stood: a gateway and members
// that disagree on (m, g, seed) never merge bucket counters. A per-shard
// sums request carries no encoding, so the first round trip of every
// connection is the mode's own request, which a member hashing under
// another seed refuses — on a read, and on the fence of a reshard.
func TestMemberGatewayRefusesForeignEncoding(t *testing.T) {
	const d, scale, S, K = 16, 2.0, 4, 2
	theirs, ours := hh.LolohaEncoding(1000, 8, 0xfeed), hh.LolohaEncoding(1000, 8, 0xbeef)
	var mu sync.Mutex
	var refusals []string
	var members []membership.Member
	for _, id := range []string{"n0", "n1"} {
		srv := transport.NewIngestServer(transport.NewShardMap(transport.DomainMode(d, theirs, scale), S, id))
		srv.ErrorLog = func(err error) {
			mu.Lock()
			refusals = append(refusals, err.Error())
			mu.Unlock()
		}
		ready := make(chan net.Addr, 1)
		done := make(chan error, 1)
		go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
		members = append(members, membership.Member{ID: id, Addr: (<-ready).String()})
		defer func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Error(err)
			}
		}()
	}
	refused := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, r := range refusals {
			if strings.Contains(r, "under a different seed") {
				n++
			}
		}
		return n
	}
	gw, err := New(transport.DomainMode(d, ours, scale), Members(S, K, members), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var gwErrs []string
	gw.ErrorLog = func(err error) {
		mu.Lock()
		gwErrs = append(gwErrs, err.Error())
		mu.Unlock()
	}
	if err := gw.AnnounceView(); err != nil { // a view has no encoding
		t.Fatal(err)
	}
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

	reader := dialGateway(t, gwAddr)
	defer reader.close()
	if err := reader.enc.Encode(wire.DomainQuery(wire.QueryPointItem, 0, d, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := reader.enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if a, err := reader.dec.ReadDomainAnswer(); err == nil {
		t.Fatalf("a gateway hashing under seed %#x answered %v from members hashing under %#x", ours.Seed, a.Values, theirs.Seed)
	}
	if refused() == 0 {
		t.Fatalf("the read failed, but no member refused the encoding: %q", refusals)
	}

	// Reports carry a bucket and no seed, so the members take them; the
	// fence a reshard runs over those forwards is what they refuse.
	writer := dialGateway(t, gwAddr)
	defer writer.close()
	if err := writer.enc.EncodeBatch([]wire.Msg{
		wire.FromDomainReport(3, protocol.Report{User: 1, Order: 0, J: 1, Bit: 1}),
		wire.FromDomainReport(5, protocol.Report{User: 2, Order: 0, J: 2, Bit: -1}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := writer.enc.Encode(wire.DomainQuery(wire.QueryPointItem, 0, d, 0, 0)); err != nil {
		t.Fatal(err)
	}
	before := refused()
	// The batch is forwarded once the gateway has read it; the reshard
	// must find it on the session's leases.
	for deadline := time.Now().Add(5 * time.Second); gw.ingestEpoch.Load() == 0; time.Sleep(time.Millisecond) {
		if err := writer.enc.Flush(); err != nil || time.Now().After(deadline) {
			t.Fatalf("the gateway never forwarded the batch (flush: %v)", err)
		}
	}
	if _, err := gw.Reshard(members, K); err != nil {
		t.Fatal(err)
	}
	if refused() == before {
		t.Fatalf("the reshard fenced forwards on members of another encoding and none refused: %q", refusals)
	}
	if a, err := writer.dec.ReadDomainAnswer(); err == nil {
		t.Fatalf("a session whose fence was refused still answered %v", a.Values)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(gwErrs, func(e string) bool { return strings.Contains(e, "unacknowledged forwards during a fence") }) {
		t.Fatalf("gateway errors %q do not mention the refused fence", gwErrs)
	}
}

// TestReshardRefusesForeignEncoding: a reshard exports each moved shard
// through the encoding-checked raw-sums request every read sends, so a
// member hashing under another seed cannot hand its bucket counters to
// a member of the gateway's encoding, where reads would then find them.
func TestReshardRefusesForeignEncoding(t *testing.T) {
	const d, scale, S, users = 16, 2.0, 4, 20
	theirs, ours := hh.LolohaEncoding(1000, 8, 0xfeed), hh.LolohaEncoding(1000, 8, 0xbeef)
	var mu sync.Mutex
	var logged []string
	start := func(enc hh.DomainEncoding, id string) (membership.Member, *transport.ShardMap) {
		sm := transport.NewShardMap(transport.DomainMode(d, enc, scale), S, id)
		srv := transport.NewIngestServer(sm)
		srv.ErrorLog = func(err error) {
			mu.Lock()
			logged = append(logged, id+": "+err.Error())
			mu.Unlock()
		}
		ready := make(chan net.Addr, 1)
		done := make(chan error, 1)
		go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
		t.Cleanup(func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Error(err)
			}
		})
		return membership.Member{ID: id, Addr: (<-ready).String()}, sm
	}
	n0, src := start(theirs, "n0")
	n1, dst := start(ours, "n1")

	// 40 acked reports on n0, written straight to it under its own seed.
	var batch []wire.Msg
	for u := 0; u < users; u++ {
		b := theirs.Bucket(u % 7)
		batch = append(batch, wire.HashedDomainHello(u, b, 0, theirs.Seed),
			wire.FromDomainReport(b, protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: 1}))
	}
	c := dialGateway(t, n0.Addr)
	defer c.close()
	if err := c.enc.EncodeAckedBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if applied, err := c.dec.ReadBatchAck(); err != nil || !applied {
		t.Fatalf("n0 did not apply the batch: %v, %v", applied, err)
	}
	if src.Users() != users {
		t.Fatalf("n0 holds %d users, want %d", src.Users(), users)
	}

	gw, err := New(transport.DomainMode(d, ours, scale), Members(S, 1, []membership.Member{n0}), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := gw.AnnounceView(); err != nil { // a view has no encoding
		t.Fatal(err)
	}
	if res, err := gw.Reshard([]membership.Member{n1}, 1); err == nil {
		t.Fatalf("a gateway hashing under seed %#x moved %d shards from a member hashing under %#x", ours.Seed, res.Transfers, theirs.Seed)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(logged, func(e string) bool {
		return strings.HasPrefix(e, "n0: ") && strings.Contains(e, "under a different seed")
	}) {
		t.Fatalf("the reshard failed, but n0 did not refuse the encoding: %q", logged)
	}
	if n := dst.Users(); n != 0 {
		t.Fatalf("n1 took %d users of another encoding", n)
	}
	if gw.View().Epoch != 1 {
		t.Fatalf("the refused reshard installed epoch %d", gw.View().Epoch)
	}
}

// TestMemberAdminHandler drives the JSON admin API: view inspection,
// a reshard post, and the rejection paths.
func TestMemberAdminHandler(t *testing.T) {
	const d, scale, S, K = 32, 2.0, 8, 1
	b0 := startMemberBackend(t, d, scale, S, "b0")
	b1 := startMemberBackend(t, d, scale, S, "b1")
	defer b0.stop(t)
	defer b1.stop(t)
	gw, err := New(transport.BoolMode(d, scale), Members(S, K, []membership.Member{b0.member()}), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := gw.AnnounceView(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.AdminHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/membership/view")
	if err != nil {
		t.Fatal(err)
	}
	var v viewJSON
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.Epoch != 1 || v.K != K || v.NumShards != S || len(v.Members) != 1 {
		t.Fatalf("view = %+v", v)
	}

	body, _ := json.Marshal(reshardRequest{
		Members: []memberJSON{{ID: "b0", Addr: b0.addr}, {ID: "b1", Addr: b1.addr}},
		K:       2,
	})
	resp, err = http.Post(srv.URL+"/membership/reshard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res ReshardResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Epoch != 2 || res.Members != 2 || res.K != 2 {
		t.Fatalf("reshard result = %+v", res)
	}
	if gw.Epoch() != 2 {
		t.Fatalf("gateway epoch %d after admin reshard", gw.Epoch())
	}

	resp, err = http.Post(srv.URL+"/membership/reshard", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON → %d, want 400", resp.StatusCode)
	}
	// A duplicate member set is a conflict, not a crash.
	dup, _ := json.Marshal(reshardRequest{Members: []memberJSON{{ID: "b0", Addr: b0.addr}, {ID: "b0", Addr: b0.addr}}, K: 1})
	resp, err = http.Post(srv.URL+"/membership/reshard", "application/json", bytes.NewReader(dup))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate members → %d, want 409", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/membership/reshard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reshard → %d, want 405", resp.StatusCode)
	}
}
