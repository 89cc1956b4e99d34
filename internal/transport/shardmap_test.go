package transport

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/membership"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// applySerial feeds a hello+report stream into a single serial sharded
// accumulator, the reference a shard map must match bit-for-bit.
func applySerial(d int, scale float64, ms []Msg) *protocol.Sharded {
	ref := protocol.NewSharded(d, scale, 1)
	for _, m := range ms {
		if m.Type == MsgHello {
			ref.Register(0, m.Order)
		} else {
			ref.Ingest(0, m.Report())
		}
	}
	return ref
}

// answerTo answers read frame m from r and returns a decoder positioned
// on the response.
func answerTo(t testing.TB, r Reader, m Msg) *Decoder {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if _, _, err := r.Answer(m, e, new(AnswerScratch)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return NewDecoder(&buf)
}

// sumsOf asks a store for raw sums: one virtual shard's, or (shard < 0)
// the whole store's.
func sumsOf(t testing.TB, st Store, shard int) RawSums {
	t.Helper()
	req := st.Mode().SumsRequest()
	if shard >= 0 {
		req = ShardSums(shard)
	}
	f, err := st.Mode().ReadSums(answerTo(t, st, req))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// exportShard exports one shard of a shard map the way a resharding
// gateway does: its raw sums over the wire, folded and serialized.
func exportShard(t *testing.T, sm *ShardMap, shard int) []byte {
	t.Helper()
	return foldState(t, sm.Mode(), sumsOf(t, sm, shard))
}

// foldState serializes the state a shard's raw sums fold to: the
// transfer payload of a reshard.
func foldState(t *testing.T, mode Mode, f RawSums) []byte {
	t.Helper()
	st, err := mode.Fold([]RawSums{f})
	if err != nil {
		t.Fatal(err)
	}
	return st.MarshalState()
}

// seriesOf asks a Boolean store for its full estimate series.
func seriesOf(t *testing.T, st Store) []float64 {
	t.Helper()
	ans, err := answerTo(t, st, QueryV2(QuerySeries, 0, 0)).ReadAnswer()
	if err != nil {
		t.Fatal(err)
	}
	return ans.Values
}

// TestShardMapEquivalence pins the core exactness claim: a shard map
// with S virtual shards answers every estimate bit-for-bit like one
// serial accumulator fed the same stream, and its folded sums frames
// agree integer-for-integer.
func TestShardMapEquivalence(t *testing.T) {
	const d, scale, S = 64, 5.5, 8
	ms := genMsgs(d, 100)
	sm := NewShardMap(BoolMode(d, scale), S, "n0")
	if err := sm.SendBatch(0, ms); err != nil {
		t.Fatal(err)
	}
	ref := applySerial(d, scale, ms)

	got, want := seriesOf(t, sm), ref.EstimateSeries()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EstimateSeries[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	if g, w := sumsOf(t, sm, -1), RawSums(SumsFromSharded(ref)); !reflect.DeepEqual(g, w) {
		t.Fatalf("global sums = %+v, want %+v", g, w)
	}

	// Per-shard frames re-merge to the same serial server.
	merged := protocol.NewServer(d, scale)
	for s := 0; s < S; s++ {
		if err := merged.MergeRaw(sumsOf(t, sm, s).Row(0)); err != nil {
			t.Fatal(err)
		}
	}
	if g, w := merged.Users(), ref.Users(); g != w {
		t.Fatalf("merged users = %d, want %d", g, w)
	}
	if g, w := merged.EstimateSeries(), ref.EstimateSeries(); !reflect.DeepEqual(g, w) {
		t.Fatalf("merged series = %v, want %v", g, w)
	}
}

// countingState counts the runs applied to a state.
type countingState struct {
	State
	runs *int
}

func (s countingState) Apply(shard int, run []Rec) (hellos, reports int64) {
	*s.runs++
	return s.State.Apply(shard, run)
}

// TestShardMapAppliesOneRunPerShard: a frame whose consecutive users
// land on a different virtual shard at every record reaches each shard
// as one run — one write lock per shard per frame, not one per record —
// and leaves every shard exactly as a serial state fed its users'
// records does.
func TestShardMapAppliesOneRunPerShard(t *testing.T) {
	const d, scale, S = 32, 1.5, 5
	for _, mode := range scopeModes(d, scale) {
		t.Run(mode.Name(), func(t *testing.T) {
			sm := NewShardMap(mode, S, "n0")
			runs := make([]int, S)
			ref := make([]State, S)
			for s := range sm.shards {
				sm.shards[s] = countingState{sm.shards[s], &runs[s]}
				ref[s] = mode.NewState(1)
			}
			var hellos, reports int64
			for i, frame := range lockRecRuns(rng.New(5, 6), mode, d, 1, 3, 4*S+3)[0] {
				if err := sm.Apply(0, frame, nil); err != nil {
					t.Fatal(err)
				}
				for _, r := range frame {
					h, n := ref[membership.ShardOf(r.User, S)].Apply(0, []Rec{r})
					hellos, reports = hellos+h, reports+n
				}
				for s, n := range runs {
					if n != i+1 {
						t.Fatalf("after frame %d: shard %d took %d runs, want %d", i, s, n, i+1)
					}
				}
			}
			for s := range ref {
				if !bytes.Equal(exportShard(t, sm, s), ref[s].MarshalState()) {
					t.Errorf("shard %d state differs from its serial reference", s)
				}
			}
			if h, n, _ := sm.Stats(); h != hellos || n != reports {
				t.Errorf("stats count %d hellos, %d reports; want %d, %d", h, n, hellos, reports)
			}
		})
	}
}

// TestShardMapInstallReplaces pins the replace-not-fold discipline:
// installing a shard's state over a member that already holds a stale
// copy must yield the source's state exactly, even when installed
// twice.
func TestShardMapInstallReplaces(t *testing.T) {
	const d, scale, S = 32, 3.5, 4
	src := NewShardMap(BoolMode(d, scale), S, "src")
	if err := src.SendBatch(0, genMsgs(d, 60)); err != nil {
		t.Fatal(err)
	}
	dst := NewShardMap(BoolMode(d, scale), S, "dst")
	// Give dst its own stale copy in every shard first.
	if err := dst.SendBatch(0, genMsgs(d, 20)); err != nil {
		t.Fatal(err)
	}
	const shard = 2
	state := exportShard(t, src, shard)
	want := sumsOf(t, src, shard)
	for i := 0; i < 2; i++ { // a re-install must not double-count
		if err := dst.InstallShard(shard, state); err != nil {
			t.Fatal(err)
		}
		if got := sumsOf(t, dst, shard); !reflect.DeepEqual(got, want) {
			t.Fatalf("install %d: shard sums = %+v, want %+v", i, got, want)
		}
	}
	if err := dst.InstallShard(S, state); err == nil {
		t.Error("InstallShard accepted an out-of-range shard")
	}
	if err := dst.InstallShard(0, []byte("junk")); err == nil {
		t.Error("InstallShard accepted junk state")
	}
}

// TestShardMapSetView covers the epoch ladder: newer views replace,
// equal re-pushes apply, stale pushes are refused without error, and a
// shard-count mismatch is a hard error.
func TestShardMapSetView(t *testing.T) {
	const S = 4
	sm := NewShardMap(BoolMode(16, 2), S, "n1")
	mkView := func(epoch uint64, ids ...string) membership.View {
		v := membership.View{Epoch: epoch, K: 1, NumShards: S}
		for _, id := range ids {
			v.Members = append(v.Members, membership.Member{ID: id, Addr: "h:" + id})
		}
		return v
	}
	if sm.Epoch() != 0 || sm.OwnedShards() != 0 {
		t.Fatalf("fresh collector: epoch=%d owned=%d", sm.Epoch(), sm.OwnedShards())
	}
	if applied, err := sm.SetView(mkView(3, "n1", "n2")); err != nil || !applied {
		t.Fatalf("SetView(3) = %v, %v", applied, err)
	}
	if sm.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", sm.Epoch())
	}
	if sm.OwnedShards() == 0 {
		t.Fatal("member listed in view owns no shards")
	}
	if applied, err := sm.SetView(mkView(2, "n1")); err != nil || applied {
		t.Fatalf("stale SetView(2) = %v, %v; want refused, nil", applied, err)
	}
	if sm.Epoch() != 3 {
		t.Fatalf("stale push changed epoch to %d", sm.Epoch())
	}
	// A view omitting this member is a drain: accepted, owned drops to 0.
	if applied, err := sm.SetView(mkView(4, "n2", "n3")); err != nil || !applied {
		t.Fatalf("drain SetView(4) = %v, %v", applied, err)
	}
	if sm.OwnedShards() != 0 {
		t.Fatalf("drained member still owns %d shards", sm.OwnedShards())
	}
	bad := mkView(5, "n1")
	bad.NumShards = S + 1
	if _, err := sm.SetView(bad); err == nil {
		t.Error("SetView accepted a shard-count mismatch")
	}
	if _, err := sm.SetView(membership.View{}); err == nil {
		t.Error("SetView accepted an invalid view")
	}
}

// TestDomainShardMapEquivalence mirrors the exactness test for the
// domain-valued mode: per-item series and top-K from the folded shard
// map match a serial domain server bit-for-bit, and install replaces.
func TestDomainShardMapEquivalence(t *testing.T) {
	const d, m, scale, S = 32, 8, 4.5, 4
	var ms []Msg
	for u := 0; u < 80; u++ {
		item := u % m
		order := u % 3
		ms = append(ms, DomainHello(u, item, order))
		j := 1 + (u*5)%(d>>uint(order))
		bit := int8(1)
		if u%3 == 0 {
			bit = -1
		}
		ms = append(ms, FromDomainReport(item, protocol.Report{User: u, Order: order, J: j, Bit: bit}))
	}
	sm := NewShardMap(DomainMode(d, hh.ExactEncoding(m), scale), S, "n0")
	if err := sm.SendBatch(0, ms); err != nil {
		t.Fatal(err)
	}
	ref := hh.NewDomainServer(d, m, scale, 1)
	for _, msg := range ms {
		if msg.Type == MsgDomainHello {
			ref.Register(0, msg.Item, msg.Order)
		} else {
			ref.Ingest(0, msg.Item, protocol.Report{User: msg.User, Order: msg.Order, J: msg.J, Bit: msg.Bit})
		}
	}
	folded := hh.NewDomainServer(d, m, scale, 1)
	if err := sumsOf(t, sm, -1).MergeInto(folded); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < m; x++ {
		if g, w := folded.EstimateItemSeries(x), ref.EstimateItemSeries(x); !reflect.DeepEqual(g, w) {
			t.Fatalf("item %d series = %v, want %v", x, g, w)
		}
	}
	if g, w := folded.TopK(d, 3), ref.TopK(d, 3); !reflect.DeepEqual(g, w) {
		t.Fatalf("TopK = %+v, want %+v", g, w)
	}

	// Install replaces on the domain side too.
	dst := NewShardMap(DomainMode(d, hh.ExactEncoding(m), scale), S, "dst")
	if err := dst.SendBatch(0, ms[:20]); err != nil {
		t.Fatal(err)
	}
	state := exportShard(t, sm, 1)
	want := sumsOf(t, sm, 1)
	for i := 0; i < 2; i++ {
		if err := dst.InstallShard(1, state); err != nil {
			t.Fatal(err)
		}
		if got := sumsOf(t, dst, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("install %d: domain shard sums diverged", i)
		}
	}
	if applied, err := dst.SetView(membership.View{
		Epoch: 1, K: 1, NumShards: S,
		Members: []membership.Member{{ID: "dst", Addr: "h:1"}},
	}); err != nil || !applied {
		t.Fatalf("domain SetView = %v, %v", applied, err)
	}
	if dst.Epoch() != 1 || dst.OwnedShards() != S {
		t.Fatalf("domain view bookkeeping: epoch=%d owned=%d", dst.Epoch(), dst.OwnedShards())
	}
}

// TestDurableShardMapRecovery runs the durable wrapper through ingest,
// a shard install (which must cut its own snapshot), more ingest, a
// simulated crash, and recovery, in every mode: the reopened map must
// agree with the expected serial state bit-for-bit.
func TestDurableShardMapRecovery(t *testing.T) {
	const d, scale, S, m = 64, 5.5, 8, 6
	enc := hh.LolohaEncoding(1000, 8, 0xfeed)
	exactMeta, hashedMeta := durableMeta(d, scale), durableMeta(d, scale)
	exactMeta.M = m
	hashedMeta.M, hashedMeta.G, hashedMeta.Encoding, hashedMeta.HashSeed = enc.M, enc.G, enc.Name, enc.Seed
	for _, tc := range []struct {
		name string
		mode Mode
		meta persist.Meta
		// tag turns a Boolean message of genMsgs into the mode's.
		tag func(Msg) Msg
	}{
		{"bool", BoolMode(d, scale), durableMeta(d, scale), func(b Msg) Msg { return b }},
		{"exact", DomainMode(d, hh.ExactEncoding(m), scale), exactMeta, func(b Msg) Msg {
			if b.Type == MsgHello {
				return DomainHello(b.User, b.User%m, b.Order)
			}
			return FromDomainReport(b.User%m, b.Report())
		}},
		{"hashed", DomainMode(d, enc, scale), hashedMeta, func(b Msg) Msg {
			if b.Type == MsgHello {
				return HashedDomainHello(b.User, b.User%enc.G, b.Order, enc.Seed)
			}
			return FromDomainReport(b.User%enc.G, b.Report())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msgs := func(lo, hi int) []Msg {
				ms := genMsgs(d, hi)[lo*5:]
				for i := range ms {
					ms[i] = tc.tag(ms[i])
				}
				return ms
			}
			dir := t.TempDir()
			first, second := msgs(0, 40), msgs(40, 90)
			donor := NewShardMap(tc.mode, S, "donor")
			if err := donor.SendBatch(0, msgs(0, 25)); err != nil {
				t.Fatal(err)
			}
			const shard = 3
			donorState := exportShard(t, donor, shard)

			dc, stats, err := OpenDurableStore(NewShardMap(tc.mode, S, "n0"), dir, tc.meta, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Hellos != 0 || stats.Reports != 0 {
				t.Fatalf("fresh open recovered %d hellos / %d reports", stats.Hellos, stats.Reports)
			}
			// Expected state: first, then shard 3 replaced by the donor copy,
			// then second — replayed on an in-memory twin.
			twin := NewShardMap(tc.mode, S, "twin")
			for _, st := range []interface {
				Store
				InstallShard(int, []byte) error
			}{dc, twin} {
				if err := st.SendBatch(0, first); err != nil {
					t.Fatal(err)
				}
				if err := st.InstallShard(shard, donorState); err != nil {
					t.Fatal(err)
				}
				if err := st.SendBatch(0, second); err != nil {
					t.Fatal(err)
				}
			}
			// Crash: abandon dc without snapshot or close.
			rec, rstats, err := OpenDurableStore(NewShardMap(tc.mode, S, "n0"), dir, tc.meta, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if rstats.SnapshotCursor == 0 {
				t.Error("recovery loaded no snapshot despite the install cutting one")
			}
			for s := -1; s < S; s++ { // -1: the whole node
				if g, w := sumsOf(t, rec, s), sumsOf(t, twin, s); !reflect.DeepEqual(g, w) {
					t.Fatalf("recovered shard %d diverged from twin", s)
				}
			}
		})
	}
}

// TestShardStatesContainer covers the persist-side container the
// durable snapshot and recovery path speak.
func TestShardStatesContainer(t *testing.T) {
	states := [][]byte{[]byte("alpha"), {}, []byte("gamma")}
	b, err := persist.EncodeShardStates(states)
	if err != nil {
		t.Fatal(err)
	}
	got, err := persist.DecodeShardStates(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(states) {
		t.Fatalf("decoded %d states, want %d", len(got), len(states))
	}
	for i := range states {
		if string(got[i]) != string(states[i]) {
			t.Fatalf("state %d = %q, want %q", i, got[i], states[i])
		}
	}
	for i := 1; i < len(b); i++ {
		if _, err := persist.DecodeShardStates(b[:i]); err == nil {
			t.Fatalf("accepted truncation to %d bytes", i)
		}
	}
	if _, err := persist.DecodeShardStates(append(append([]byte{}, b...), 0)); err == nil {
		t.Error("accepted trailing byte")
	}
	if _, err := persist.EncodeShardStates(nil); err == nil {
		t.Error("encoded an empty container")
	}
}

// startShardServer boots a membership-mode Boolean server for the
// round-trip tests.
func startShardServer(t *testing.T, col Store) (string, func()) {
	t.Helper()
	srv := NewIngestServer(col)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()
	return addr, func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestMembershipServeRoundTrip drives a membership-mode backend over
// TCP through every flow a member gateway uses: replicated ingest,
// point/series queries, per-shard sums, a shard's export (its sums,
// folded) and transfer install, and view push — all via a ReplicaClient
// lease.
func TestMembershipServeRoundTrip(t *testing.T) {
	const d, scale, S = 64, 5.5, 8
	mode := BoolMode(d, scale)
	sm := NewShardMap(mode, S, "n0")
	addr, stop := startShardServer(t, sm)
	defer stop()

	rc := NewReplicaClient(ClusterOptions{DialAttempts: 2})
	defer rc.Close()
	bc, err := rc.Lease(addr)
	if err != nil {
		t.Fatal(err)
	}

	ms := genMsgs(d, 50)
	ref := applySerial(d, scale, ms)
	if err := bc.SendBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := bc.Flush(); err != nil {
		t.Fatal(err)
	}

	// Per-shard sums fence the earlier batch and must re-merge to the
	// serial reference.
	merged := protocol.NewServer(d, scale)
	for s := 0; s < S; s++ {
		f, err := bc.FetchSums(mode, s, Scope{})
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.MergeRaw(f.Row(0)); err != nil {
			t.Fatal(err)
		}
	}
	if g, w := merged.EstimateSeries(), ref.EstimateSeries(); !reflect.DeepEqual(g, w) {
		t.Fatalf("fetched shard sums fold to %v, want %v", g, w)
	}

	// Global sums and v2 answers still work on the same connection.
	f, err := bc.FetchSums(mode, -1, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := f, RawSums(SumsFromSharded(ref)); !reflect.DeepEqual(g, w) {
		t.Fatalf("global sums = %+v, want %+v", g, w)
	}
	if err := bc.enc.Encode(QueryV2(QueryPoint, d/2, d/2)); err != nil {
		t.Fatal(err)
	}
	if err := bc.Flush(); err != nil {
		t.Fatal(err)
	}
	ans, err := bc.dec.ReadAnswer()
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.EstimateAt(d / 2); len(ans.Values) != 1 || ans.Values[0] != want {
		t.Fatalf("point answer %v, want [%v]", ans.Values, want)
	}

	// Export a shard, install it on a second backend, confirm the copy.
	sums5, err := bc.FetchSums(mode, 5, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	state := foldState(t, mode, sums5)
	sm2 := NewShardMap(mode, S, "n1")
	addr2, stop2 := startShardServer(t, sm2)
	defer stop2()
	bc2, err := rc.Lease(addr2)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc2.TransferShard(5, state); err != nil {
		t.Fatal(err)
	}
	want5 := sumsOf(t, sm, 5)
	got5, err := bc2.FetchSums(mode, 5, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got5, want5) {
		t.Fatal("transferred shard's sums diverge from the source")
	}

	// View push lands in the collector; a stale re-push is refused.
	v := membership.View{Epoch: 7, K: 2, NumShards: S, Members: []membership.Member{
		{ID: "n0", Addr: addr}, {ID: "n1", Addr: addr2},
	}}
	if err := bc.PushView(v); err != nil {
		t.Fatal(err)
	}
	if sm.Epoch() != 7 {
		t.Fatalf("backend epoch = %d, want 7", sm.Epoch())
	}
	stale := v.Clone()
	stale.Epoch = 3
	if err := bc.PushView(stale); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale view push error = %v", err)
	}
	// An out-of-range shard request kills the connection with an error.
	if _, err := bc.FetchSums(mode, S, Scope{}); err == nil {
		t.Error("backend answered an out-of-range shard request")
	}
	rc.Release(addr, bc, false)
	rc.Release(addr2, bc2, true)
}

// TestDomainMembershipServeRoundTrip is the domain-mode twin: ingest,
// per-shard domain sums, a domain query, and a shard transfer between
// two backends.
func TestDomainMembershipServeRoundTrip(t *testing.T) {
	const d, m, scale, S = 32, 8, 4.5, 4
	mode := DomainMode(d, hh.ExactEncoding(m), scale)
	col := NewShardMap(mode, S, "n0")
	srv := NewIngestServer(col)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	rc := NewReplicaClient(ClusterOptions{DialAttempts: 2})
	defer rc.Close()
	bc, err := rc.Lease(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Release(addr, bc, true)

	var ms []Msg
	ref := hh.NewDomainServer(d, m, scale, 1)
	for u := 0; u < 40; u++ {
		item := u % m
		ms = append(ms, DomainHello(u, item, 0))
		r := protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: 1}
		ms = append(ms, FromDomainReport(item, r))
		ref.Register(0, item, 0)
		ref.Ingest(0, item, r)
	}
	if err := bc.SendBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := bc.Flush(); err != nil {
		t.Fatal(err)
	}

	folded := hh.NewDomainServer(d, m, scale, 1)
	for s := 0; s < S; s++ {
		f, err := bc.FetchSums(mode, s, Scope{})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.MergeInto(folded); err != nil {
			t.Fatal(err)
		}
	}
	for x := 0; x < m; x++ {
		if g, w := folded.EstimateItemSeries(x), ref.EstimateItemSeries(x); !reflect.DeepEqual(g, w) {
			t.Fatalf("item %d folded series diverges", x)
		}
	}

	sums2, err := bc.FetchSums(mode, 2, Scope{})
	if err != nil {
		t.Fatal(err)
	}
	state := foldState(t, mode, sums2)
	col2 := NewShardMap(mode, S, "n1")
	if err := col2.InstallShard(2, state); err != nil {
		t.Fatal(err)
	}
	if got, want := sumsOf(t, col2, 2), sumsOf(t, col, 2); !reflect.DeepEqual(got, want) {
		t.Fatal("domain shard transfer diverged")
	}

	v := membership.View{Epoch: 1, K: 1, NumShards: S, Members: []membership.Member{{ID: "n0", Addr: addr}}}
	if err := bc.PushView(v); err != nil {
		t.Fatal(err)
	}
	if col.Epoch() != 1 {
		t.Fatalf("domain backend epoch = %d, want 1", col.Epoch())
	}
}
