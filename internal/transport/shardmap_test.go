package transport

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/membership"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/wire"
)

// registerAt and ingestAt write one hello or one report into a Boolean
// accumulator's shard as a run of one, through its writer.
func registerAt(acc *protocol.Sharded, shard, order int) {
	w := acc.Lock(shard)
	defer w.Unlock()
	w.Register(0, order)
}

func ingestAt(acc *protocol.Sharded, shard int, r protocol.Report) {
	w := acc.Lock(shard)
	defer w.Unlock()
	w.Ingest(0, r)
}

// snapshotOf folds a Boolean accumulator into a serial server.
func snapshotOf(acc *protocol.Sharded) *protocol.Server {
	srv := protocol.NewServer(acc.D(), acc.Scale())
	if err := srv.MergeRaw(acc.Fold()); err != nil {
		panic(err)
	}
	return srv
}

// applySerial feeds a hello+report stream into a single serial sharded
// accumulator, the reference a shard map must match bit-for-bit.
func applySerial(d int, scale float64, ms []wire.Msg) *protocol.Sharded {
	ref := protocol.NewSharded(d, scale, 1)
	for _, m := range ms {
		if m.Type == wire.MsgHello {
			registerAt(ref, 0, int(m.Order))
		} else {
			ingestAt(ref, 0, m.Report())
		}
	}
	return ref
}

// answerTo answers read frame m from r and returns a decoder positioned
// on the response.
func answerTo(t testing.TB, r Reader, m wire.Msg) *wire.Decoder {
	t.Helper()
	var buf bytes.Buffer
	e := wire.NewEncoder(&buf)
	if _, _, err := r.Answer(m, e, new(AnswerScratch)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return wire.NewDecoder(&buf)
}

// sumsOf asks a store for raw sums: one virtual shard's, or (shard < 0)
// the whole store's.
func sumsOf(t testing.TB, st Store, shard int) wire.RawSums {
	t.Helper()
	req := st.Mode().SumsRequest()
	if shard >= 0 {
		req = wire.ShardSums(shard)
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
func foldState(t *testing.T, mode Mode, f wire.RawSums) []byte {
	t.Helper()
	st, err := mode.Fold([]wire.RawSums{f})
	if err != nil {
		t.Fatal(err)
	}
	return st.MarshalState()
}

// seriesOf asks a Boolean store for its full estimate series.
func seriesOf(t *testing.T, st Store) []float64 {
	t.Helper()
	ans, err := answerTo(t, st, wire.QueryV2(wire.QuerySeries, 0, 0)).ReadAnswer()
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
	if err := ingestRun(sm, 0, ms); err != nil {
		t.Fatal(err)
	}
	ref := applySerial(d, scale, ms)

	got, want := seriesOf(t, sm), ref.EstimateSeries()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EstimateSeries[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	if g, w := sumsOf(t, sm, -1), wire.RawSums(SumsFromSharded(ref)); !reflect.DeepEqual(g, w) {
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

// versionOf reads the version stamp of a state's counter matrix.
func versionOf(st State) uint64 {
	switch s := st.(type) {
	case boolState:
		return s.acc.Version()
	case domainState:
		return s.rows.Version()
	}
	panic(fmt.Sprintf("versionOf(%T)", st))
}

// TestShardMapAppliesOneRunPerShard: a frame whose consecutive users
// land on a different virtual shard at every record reaches each shard
// as one run — one write lock per shard per frame, not one per record,
// so the accumulator's version advances by exactly the number of shards
// the frame touches — and leaves every shard exactly as a serial state
// fed its users' records does.
func TestShardMapAppliesOneRunPerShard(t *testing.T) {
	const d, scale, S = 32, 1.5, 5
	for _, mode := range scopeModes(d, scale) {
		t.Run(mode.Name(), func(t *testing.T) {
			sm := NewShardMap(mode, S, "n0")
			ref := make([]State, S)
			for s := range ref {
				ref[s] = mode.NewState(1)
			}
			var hellos, reports int64
			for i, frame := range lockRecRuns(rng.New(5, 6), mode, d, 1, 3, 4*S+3)[0] {
				before := versionOf(sm.st)
				if err := sm.Apply(0, frame, nil); err != nil {
					t.Fatal(err)
				}
				touched := map[int]bool{}
				for _, r := range frame {
					s := membership.ShardOf(r.User, S)
					touched[s] = true
					h, n := ref[s].Apply(0, []wire.Rec{r})
					hellos, reports = hellos+h, reports+n
				}
				if got := versionOf(sm.st) - before; got != uint64(len(touched)) {
					t.Fatalf("frame %d touched %d shards and advanced the version by %d", i, len(touched), got)
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

// TestShardMapSendBatchRoutesByUser pins the Msg view of ingest on a
// shard map to the served path: SendBatch routes each record to its
// user's virtual shard, as Apply does, not to the shard it names.
func TestShardMapSendBatchRoutesByUser(t *testing.T) {
	const d, scale, S = 32, 1.5, 4
	ms := genMsgs(d, 30)
	viaApply, viaSend := NewShardMap(BoolMode(d, scale), S, "n0"), NewShardMap(BoolMode(d, scale), S, "n0")
	if err := ingestRun(viaApply, 0, ms); err != nil {
		t.Fatal(err)
	}
	if err := viaSend.SendBatch(0, ms); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaSend.marshalState(), viaApply.marshalState()) {
		t.Fatal("SendBatch into a shard map left other shard states than Apply")
	}
}

// TestShardMapInstallReplaces pins the replace-not-fold discipline:
// installing a shard's state over a member that already holds a stale
// copy must yield the source's state exactly, even when installed
// twice.
func TestShardMapInstallReplaces(t *testing.T) {
	const d, scale, S = 32, 3.5, 4
	src := NewShardMap(BoolMode(d, scale), S, "src")
	if err := ingestRun(src, 0, genMsgs(d, 60)); err != nil {
		t.Fatal(err)
	}
	dst := NewShardMap(BoolMode(d, scale), S, "dst")
	// Give dst its own stale copy in every shard first.
	if err := ingestRun(dst, 0, genMsgs(d, 20)); err != nil {
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

// applyRuns applies each run to a store as one frame.
func applyRuns(t testing.TB, st Store, runs [][]wire.Rec) {
	t.Helper()
	for _, run := range runs {
		if err := st.Apply(0, run, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardMapInstallInvalidatesMemo warms the memo behind one read of
// each mode — a Boolean series, an exact top-k, a hashed point-item —
// then installs a virtual shard: the next read must miss the memo and
// answer, bit for bit, what a serial state fed the map's post-install
// stream answers.
func TestShardMapInstallInvalidatesMemo(t *testing.T) {
	const d, scale, S, shard = 32, 1.5, 4, 1
	modes := scopeModes(d, scale)
	for i, q := range []wire.Msg{
		wire.QueryV2(wire.QuerySeries, 0, 0),
		wire.DomainQuery(wire.QueryTopK, 0, d-1, 0, 2),
		wire.DomainQuery(wire.QueryPointItem, 7, d-3, 0, 0),
	} {
		mode := modes[i]
		t.Run(mode.Name(), func(t *testing.T) {
			answer := func(r Reader) ([]byte, bool) {
				var buf bytes.Buffer
				e := wire.NewEncoder(&buf)
				memo, hit, err := r.Answer(q, e, new(AnswerScratch))
				if err == nil {
					err = e.Flush()
				}
				if err != nil || !memo {
					t.Fatalf("read %+v: memo %v, err %v", q, memo, err)
				}
				return buf.Bytes(), hit
			}
			live := lockRecRuns(rng.New(11, 1), mode, d, 1, 4, 32)[0]
			donated := lockRecRuns(rng.New(12, 2), mode, d, 1, 4, 32)[0]
			sm, donor := NewShardMap(mode, S, "n0"), NewShardMap(mode, S, "donor")
			applyRuns(t, sm, live)
			applyRuns(t, donor, donated)
			before, _ := answer(sm)
			if _, hit := answer(sm); !hit {
				t.Fatal("a repeated read missed the memo")
			}
			if err := sm.InstallShard(shard, exportShard(t, donor, shard)); err != nil {
				t.Fatal(err)
			}
			// The post-install stream: the live records off the shard, the
			// donor's on it.
			ref := mode.NewState(1)
			for k, runs := range [][][]wire.Rec{live, donated} {
				for _, run := range runs {
					for _, r := range run {
						if (membership.ShardOf(r.User, S) == shard) == (k == 1) {
							ref.Apply(0, []wire.Rec{r})
						}
					}
				}
			}
			got, hit := answer(sm)
			if hit {
				t.Error("the first read after the install hit the memo")
			}
			if want, _ := answer(ref); !bytes.Equal(got, want) {
				t.Fatalf("answer after the install %x, want %x", got, want)
			}
			if bytes.Equal(got, before) {
				t.Fatalf("the install left the answer as it was (%x), so the test shows nothing", got)
			}
		})
	}
}

// TestShardMapInstallRacesIngest installs virtual shards while two
// writers apply frames that touch every shard and readers answer every
// read of the mode, a shard's sums and the snapshot included: run under
// -race, it checks the installs' locking. The race leaves the installed
// shards' counters to the interleaving, so a last install fixes them
// and more frames follow; the map must then equal, byte for byte, a map
// that took the racing frames, the installs and then the rest serially.
func TestShardMapInstallRacesIngest(t *testing.T) {
	const d, scale, S = 32, 1.5, 4
	for _, mode := range scopeModes(d, scale) {
		t.Run(mode.Name(), func(t *testing.T) {
			g := rng.New(13, uint64(modeRows(mode)))
			racing := lockRecRuns(g, mode, d, 2, 20, 24)
			rest := lockRecRuns(g, mode, d, 1, 4, 24)[0]
			donor := NewShardMap(mode, S, "donor")
			applyRuns(t, donor, lockRecRuns(g, mode, d, 1, 4, 24)[0])
			states := [][]byte{exportShard(t, donor, 0), exportShard(t, donor, 1)}
			reads := append(lockReads(mode, d), wire.ShardSums(0), wire.ShardSums(2))

			sm := NewShardMap(mode, S, "n0")
			var busy, reading sync.WaitGroup
			var stop atomic.Bool
			for r := 0; r < 2; r++ {
				reading.Add(1)
				go func(r int) {
					defer reading.Done()
					for i := r; !stop.Load(); i += 2 {
						if _, err := answerBytes(sm, reads[i%len(reads)]); err != nil {
							t.Error(err)
							return
						}
						if i%len(reads) == 0 {
							sm.marshalState()
						}
					}
				}(r)
			}
			for w := range racing {
				busy.Add(1)
				go func(w int) {
					defer busy.Done()
					for _, run := range racing[w] {
						if err := sm.Apply(0, run, nil); err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			busy.Add(1)
			go func() {
				defer busy.Done()
				for i := 0; i < 40; i++ {
					if err := sm.InstallShard(i%2, states[i/2%2]); err != nil {
						t.Error(err)
					}
				}
			}()
			busy.Wait()
			stop.Store(true)
			reading.Wait()

			twin := NewShardMap(mode, S, "twin")
			applyRuns(t, twin, slices.Concat(racing...))
			for _, m := range []*ShardMap{sm, twin} {
				for s, state := range states {
					if err := m.InstallShard(s, state); err != nil {
						t.Fatal(err)
					}
				}
				applyRuns(t, m, rest)
			}
			if got, want := sm.marshalState(), twin.marshalState(); !bytes.Equal(got, want) {
				t.Fatal("state after the race differs from the serial replace-then-apply state")
			}
			for _, q := range reads {
				got, err := answerBytes(sm, q)
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := answerBytes(twin, q); !bytes.Equal(got, want) {
					t.Errorf("read %+v after the race differs from the serial map's", q)
				}
			}
			if n, _ := sm.Resident(); n != S {
				t.Errorf("%d of %d shards resident", n, S)
			}
		})
	}
}

// goldenShardMap is a small populated shard map of the mode (d = 16,
// four virtual shards, m = 4 exact rows or g = 8 loloha buckets): forty
// users' hellos and reports in one frame, none of them on shard 3, which
// stays empty.
func goldenShardMap(t *testing.T, name string) *ShardMap {
	t.Helper()
	const d, scale, S = 16, 2.5, 4
	mode := map[string]Mode{
		"bool":   BoolMode(d, scale),
		"exact":  DomainMode(d, hh.ExactEncoding(4), scale),
		"hashed": DomainMode(d, hh.LolohaEncoding(1000, 8, 0xfeed), scale),
	}[name]
	sm := NewShardMap(mode, S, "n0")
	g, rows := rng.New(48, 4), max(modeRows(mode), 1)
	var run []wire.Rec
	for u := 0; u < 40; u++ {
		if u%S == 3 {
			continue
		}
		h, item := g.IntN(dyadic.NumOrders(d)), uint32(g.IntN(rows))
		run = append(run, wire.Rec{User: u, Item: item, Order: uint8(h)})
		for r := 0; r < 3; r++ {
			run = append(run, wire.Rec{User: u, Item: item, Order: uint8(h), J: uint32(1 + g.IntN(d>>uint(h))), Bit: int8(1 - 2*g.IntN(2))})
		}
	}
	if err := sm.Apply(0, run, nil); err != nil {
		t.Fatal(err)
	}
	return sm
}

// TestShardMapStateGolden pins the snapshot a membership backend cuts,
// per mode, to the bytes testdata/shardmap-state holds: the
// persist.EncodeShardStates container of one state per virtual shard,
// each what a one-shard accumulator holding that shard's users
// marshals (an empty shard's included). The pins were written while
// every virtual shard was its own accumulator; a diff here breaks the
// data directories of deployed members. The pinned bytes also restore
// and re-marshal unchanged.
func TestShardMapStateGolden(t *testing.T) {
	for _, name := range []string{"bool", "exact", "hashed"} {
		t.Run(name, func(t *testing.T) {
			pin, err := os.ReadFile(filepath.Join("testdata", "shardmap-state", name+".hex"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(strings.TrimSpace(string(pin)))
			if err != nil {
				t.Fatal(err)
			}
			sm := goldenShardMap(t, name)
			if got := sm.marshalState(); !bytes.Equal(got, want) {
				t.Fatalf("snapshot state changed:\n got  %x\n want %x", got, want)
			}
			back := NewShardMap(sm.Mode(), sm.NumShards(), "n1")
			if err := back.restoreState(want); err != nil {
				t.Fatal(err)
			}
			if got := back.marshalState(); !bytes.Equal(got, want) {
				t.Fatalf("restored state re-marshals to %x, want %x", got, want)
			}
		})
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
	var ms []wire.Msg
	for u := 0; u < 80; u++ {
		item := u % m
		order := u % 3
		ms = append(ms, wire.DomainHello(u, item, order))
		j := 1 + (u*5)%(d>>uint(order))
		bit := int8(1)
		if u%3 == 0 {
			bit = -1
		}
		ms = append(ms, wire.FromDomainReport(item, protocol.Report{User: u, Order: order, J: j, Bit: bit}))
	}
	sm := NewShardMap(DomainMode(d, hh.ExactEncoding(m), scale), S, "n0")
	if err := ingestRun(sm, 0, ms); err != nil {
		t.Fatal(err)
	}
	ref := hh.NewDomainServer(d, m, scale, 1)
	for _, msg := range ms {
		if msg.Type == wire.MsgDomainHello {
			ref.Register(0, int(msg.Item), int(msg.Order))
		} else {
			ref.Ingest(0, int(msg.Item), protocol.Report{User: msg.User, Order: int(msg.Order), J: msg.J, Bit: msg.Bit})
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
	if err := ingestRun(dst, 0, ms[:20]); err != nil {
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
		tag func(wire.Msg) wire.Msg
	}{
		{"bool", BoolMode(d, scale), durableMeta(d, scale), func(b wire.Msg) wire.Msg { return b }},
		{"exact", DomainMode(d, hh.ExactEncoding(m), scale), exactMeta, func(b wire.Msg) wire.Msg {
			if b.Type == wire.MsgHello {
				return wire.DomainHello(b.User, b.User%m, int(b.Order))
			}
			return wire.FromDomainReport(b.User%m, b.Report())
		}},
		{"hashed", DomainMode(d, enc, scale), hashedMeta, func(b wire.Msg) wire.Msg {
			if b.Type == wire.MsgHello {
				return wire.HashedDomainHello(b.User, b.User%enc.G, int(b.Order), enc.Seed)
			}
			return wire.FromDomainReport(b.User%enc.G, b.Report())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msgs := func(lo, hi int) []wire.Msg {
				ms := genMsgs(d, hi)[lo*5:]
				for i := range ms {
					ms[i] = tc.tag(ms[i])
				}
				return ms
			}
			dir := t.TempDir()
			first, second := msgs(0, 40), msgs(40, 90)
			donor := NewShardMap(tc.mode, S, "donor")
			if err := ingestRun(donor, 0, msgs(0, 25)); err != nil {
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
				if err := ingestRun(st, 0, first); err != nil {
					t.Fatal(err)
				}
				if err := st.InstallShard(shard, donorState); err != nil {
					t.Fatal(err)
				}
				if err := ingestRun(st, 0, second); err != nil {
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
		f, err := bc.FetchSums(mode, s, wire.Scope{})
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
	f, err := bc.FetchSums(mode, -1, wire.Scope{})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := f, wire.RawSums(SumsFromSharded(ref)); !reflect.DeepEqual(g, w) {
		t.Fatalf("global sums = %+v, want %+v", g, w)
	}
	if err := bc.enc.Encode(wire.QueryV2(wire.QueryPoint, d/2, d/2)); err != nil {
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
	sums5, err := bc.FetchSums(mode, 5, wire.Scope{})
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
	got5, err := bc2.FetchSums(mode, 5, wire.Scope{})
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
	if _, err := bc.FetchSums(mode, S, wire.Scope{}); err == nil {
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

	var ms []wire.Msg
	ref := hh.NewDomainServer(d, m, scale, 1)
	for u := 0; u < 40; u++ {
		item := u % m
		ms = append(ms, wire.DomainHello(u, item, 0))
		r := protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: 1}
		ms = append(ms, wire.FromDomainReport(item, r))
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
		f, err := bc.FetchSums(mode, s, wire.Scope{})
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

	sums2, err := bc.FetchSums(mode, 2, wire.Scope{})
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
