package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"rtf/internal/dyadic"
	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// This file holds the scoped raw-sums path to its specification: a
// scoped frame is the full frame projected onto the dyadic cover of its
// range, and nothing a read computes from scoped frames differs by a bit
// from what it computes from full ones.

// scopeModes are the three row shapes: 0 rows (Boolean), m, g.
func scopeModes(d int, scale float64) []Mode {
	return []Mode{
		BoolMode(d, scale),
		DomainMode(d, hh.ExactEncoding(3), scale),
		DomainMode(d, hh.LolohaEncoding(50, 4, 0xfeed), scale),
	}
}

func modeRows(mode Mode) int { return mode.Ingest().Rows }

// randomFullFrame is a full frame of the mode's shape with arbitrary
// counters: header counts non-negative, interval sums of either sign and
// of one to ten wire bytes.
func randomFullFrame(g *rng.RNG, d int, mode Mode, scale float64) RawSums {
	f := RawSums{D: d, M: modeRows(mode), Scale: scale}
	f.Counters = make([]int64, f.rows()*f.stride())
	for x := 0; x < f.rows(); x++ {
		_, perOrder, sums := f.Row(x)
		for h := range perOrder {
			perOrder[h] = int64(g.IntN(40))
			f.Counters[x*f.stride()] += perOrder[h]
		}
		for i := range sums {
			sums[i] = (int64(g.Uint64()>>uint(g.IntN(64))) - 30) * int64(1-2*g.IntN(2))
		}
	}
	return f
}

// liveState is a live two-shard state of the mode fed n random valid
// records through both counter shards.
func liveState(g *rng.RNG, d int, mode Mode, n int) State {
	st := mode.NewState(2)
	rows := max(modeRows(mode), 1)
	for i := 0; i < n; i++ {
		h := g.IntN(dyadic.NumOrders(d))
		rec := Rec{User: i, Item: uint32(g.IntN(rows)), Order: uint8(h)}
		if g.IntN(4) > 0 {
			rec.J, rec.Bit = uint32(1+g.IntN(d>>uint(h))), int8(1-2*g.IntN(2))
		}
		st.Apply(i%2, []Rec{rec})
	}
	return st
}

// project restricts a full frame to a scope by the definition alone:
// header columns, then the interval sums of dyadic.DecomposeRange(L, R)
// in its order.
func project(f RawSums, sc Scope) RawSums {
	tree := dyadic.NewTree(f.D)
	off, full := 1+dyadic.NumOrders(f.D), protocol.RawStride(f.D)
	out := RawSums{D: f.D, M: f.M, Scale: f.Scale, Scope: sc}
	for x := 0; x < f.rows(); x++ {
		row := f.Counters[x*full : (x+1)*full]
		out.Counters = append(out.Counters, row[:off]...)
		for _, iv := range dyadic.DecomposeRange(sc.L, sc.R, f.D) {
			out.Counters = append(out.Counters, row[off+tree.FlatIndex(iv)])
		}
	}
	return out
}

// answerBytes is the wire answer r gives to m.
func answerBytes(r Reader, m Msg) ([]byte, error) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	var sc AnswerScratch
	if _, _, err := r.Answer(m, enc, &sc); err != nil {
		return nil, err
	}
	err := enc.Flush()
	return buf.Bytes(), err
}

func scopedRequest(mode Mode, sc Scope) Msg {
	req := mode.SumsRequest()
	req.L, req.R = sc.L, sc.R
	return req
}

func cloneFrames(fs []RawSums) []RawSums {
	out := slices.Clone(fs)
	for i := range out {
		out[i].Counters = slices.Clone(out[i].Counters)
	}
	return out
}

// coveredReads are the read frames of the mode a gather of scope sc must
// answer, besides the scoped sums request itself; uncovered is one it
// must refuse.
func coveredReads(mode Mode, g *rng.RNG, d int, sc Scope) (covered []Msg, uncovered Msg) {
	covered = []Msg{scopedRequest(mode, sc)}
	if modeRows(mode) == 0 {
		covered = append(covered, QueryV2(QueryChange, sc.L, sc.R))
		if sc.L == 1 {
			covered = append(covered, QueryV2(QueryPoint, sc.R, sc.R))
		}
		return covered, QueryV2(QuerySeries, 0, 0)
	}
	items := mode.(*domainMode).enc.M
	if sc.L == 1 {
		covered = append(covered,
			DomainQuery(QueryPointItem, g.IntN(items), sc.R, 0, 0),
			DomainQuery(QueryTopK, 0, sc.R, 0, 1+g.IntN(items)))
	}
	return covered, DomainQuery(QuerySeriesItem, g.IntN(items), 0, 0, 0)
}

// checkScoped is the property: for states whose full exports are full,
// the scoped frame each encodes is its full frame projected; it survives
// the wire; and sums gathered under the scope answer every read the
// scope covers with the bytes — so the float bits — sums gathered whole
// answer with, and refuse the rest.
func checkScoped(t *testing.T, mode Mode, g *rng.RNG, d int, sc Scope, states []State) {
	t.Helper()
	var full, scoped []RawSums
	for i, st := range states {
		f := st.Sums(Scope{})
		want := project(f, sc)
		wire, err := answerBytes(st, scopedRequest(mode, sc))
		if err != nil {
			t.Fatalf("node %d: encoding scope %v: %v", i, sc, err)
		}
		got, err := mode.ReadSums(NewDecoder(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("node %d: decoding scope %v: %v", i, sc, err)
		}
		if !got.Equal(want) {
			t.Fatalf("node %d scope %v: scoped frame %+v, the full frame projects to %+v", i, sc, got, want)
		}
		if exported := st.Sums(sc); !exported.Equal(want) {
			t.Fatalf("node %d scope %v: Sums exports %+v, want %+v", i, sc, exported, want)
		}
		var back bytes.Buffer
		enc := NewEncoder(&back)
		if err := mode.EncodeSums(enc, got); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), wire) {
			t.Fatalf("node %d scope %v: the decoded frame re-encodes to other bytes", i, sc)
		}
		full, scoped = append(full, f), append(scoped, got)
	}
	whole, err := NewGathered(mode, cloneFrames(full))
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewGathered(mode, cloneFrames(scoped))
	if err != nil {
		t.Fatal(err)
	}
	if part.Scope() != sc {
		t.Fatalf("gathered scope %v, want %v", part.Scope(), sc)
	}
	covered, uncovered := coveredReads(mode, g, d, sc)
	for _, m := range covered {
		want, err := answerBytes(whole, m)
		if err != nil {
			t.Fatalf("full gather answering %+v: %v", m, err)
		}
		got, err := answerBytes(part, m)
		if err != nil {
			t.Fatalf("scope %v answering %+v: %v", sc, m, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("scope %v answers %+v with\n %x, sums gathered whole with\n %x", sc, m, got, want)
		}
	}
	if protocol.ScopedStride(d, sc.L, sc.R) < protocol.RawStride(d) {
		if got, err := answerBytes(part, uncovered); err == nil {
			t.Fatalf("scope %v answered %+v, which reads columns it does not hold: %x", sc, uncovered, got)
		}
		// Another range's frames never merge into this one's.
		other := Scope{1, d}
		if other == sc {
			other = Scope{1, 1}
		}
		mixed := append(cloneFrames(scoped), states[0].Sums(other))
		if _, err := NewGathered(mode, mixed); err == nil {
			t.Fatalf("frames of scopes %v and %v merged", sc, other)
		}
	}
}

// TestScopedSumsEveryRange runs the property over live states of every
// mode at d = 8 for every (L, R) and one to three nodes.
func TestScopedSumsEveryRange(t *testing.T) {
	const d, scale = 8, 1.5
	for mi, mode := range scopeModes(d, scale) {
		g := rng.New(uint64(mi), 77)
		for nodes := 1; nodes <= 3; nodes++ {
			states := make([]State, nodes)
			for i := range states {
				states[i] = liveState(g, d, mode, 200)
			}
			for l := 1; l <= d; l++ {
				for r := l; r <= d; r++ {
					checkScoped(t, mode, g, d, Scope{l, r}, states)
				}
			}
		}
	}
}

// TestScopedStateRefusesOtherColumns pins what the gather-level check
// stands in front of: a state built over a scope panics when asked for a
// counter outside it instead of reading a zero.
func TestScopedStateRefusesOtherColumns(t *testing.T) {
	const d = 16
	for _, mode := range scopeModes(d, 2) {
		st, err := mode.Fold([]RawSums{liveState(rng.New(5, 5), d, mode, 50).Sums(Scope{1, 5})})
		if err != nil {
			t.Fatal(err)
		}
		read := Msg(QueryV2(QueryPoint, 6, 6))
		if modeRows(mode) > 0 {
			read = DomainQuery(QueryPointItem, 1, 6, 0, 0)
		}
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(p.(string), "outside the scope") {
					t.Errorf("%s: reading period 6 from a state scoped to [1..5] gave %v, want a scope panic", mode.Name(), p)
				}
			}()
			answerBytes(st, read)
		}()
	}
}

// scopedFrameBytes hand-assembles a version-2 frame.
func scopedFrameBytes(typ MsgType, ver byte, d, m, l, r uint64, scale float64, counters ...int64) []byte {
	b := []byte{byte(typ), ver}
	b = binary.AppendUvarint(b, d)
	if typ == MsgDomainSumsFrame {
		b = binary.AppendUvarint(b, m)
	}
	if ver != queryWireVersion {
		b = binary.AppendUvarint(binary.AppendUvarint(b, l), r)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scale))
	for _, c := range counters {
		b = binary.AppendVarint(b, c)
	}
	return b
}

// malformedScopedFrames are frames the decoder must refuse, each with a
// fragment of the error it must refuse them with.
func malformedScopedFrames() map[string]struct {
	typ  MsgType
	data []byte
	want string
} {
	// d = 4: four header columns; scope [2..4] is two interval sums.
	row := []int64{2, 1, 1, 0, -7, 9}
	ok := scopedFrameBytes(MsgSumsFrame, 2, 4, 0, 2, 4, 1.5, row...)
	type c = struct {
		typ  MsgType
		data []byte
		want string
	}
	return map[string]c{
		"L = 0":            {MsgSumsFrame, scopedFrameBytes(MsgSumsFrame, 2, 4, 0, 0, 3, 1.5, row...), "sums scope [0..3] invalid"},
		"no scope":         {MsgSumsFrame, scopedFrameBytes(MsgSumsFrame, 2, 4, 0, 0, 0, 1.5, row...), "without a scope"},
		"L > R":            {MsgSumsFrame, scopedFrameBytes(MsgSumsFrame, 2, 4, 0, 3, 2, 1.5, row...), "sums scope [3..2] invalid"},
		"R > d":            {MsgSumsFrame, scopedFrameBytes(MsgSumsFrame, 2, 4, 0, 2, 5, 1.5, row...), "sums scope [2..5] invalid"},
		"R past the bound": {MsgSumsFrame, scopedFrameBytes(MsgSumsFrame, 2, 4, 0, 2, MaxSumsD+1, 1.5, row...), "out of bounds"},
		// The other type's layout: m reads as L, or L as m.
		"Boolean with rows":    {MsgSumsFrame, append([]byte{byte(MsgSumsFrame)}, scopedFrameBytes(MsgDomainSumsFrame, 2, 4, 3, 2, 4, 1.5, row...)[1:]...), "sums scope [3..2] invalid"},
		"domain without rows":  {MsgDomainSumsFrame, append([]byte{byte(MsgDomainSumsFrame)}, ok[1:]...), "invalid"},
		"row one short":        {MsgSumsFrame, ok[:len(ok)-1], "unexpected EOF"},
		"cut after the scope":  {MsgSumsFrame, ok[:5], "unexpected EOF"},
		"cut inside the scope": {MsgSumsFrame, ok[:4], "unexpected EOF"},
		"version 3":            {MsgSumsFrame, scopedFrameBytes(MsgSumsFrame, 3, 4, 0, 2, 4, 1.5, row...), "unsupported sums version 3"},
		"version 3, domain":    {MsgDomainSumsFrame, scopedFrameBytes(MsgDomainSumsFrame, 3, 4, 2, 2, 4, 1.5, row...), "unsupported sums version 3"},
		"negative user count":  {MsgSumsFrame, scopedFrameBytes(MsgSumsFrame, 2, 4, 0, 2, 4, 1.5, -1, 1, 1, 0, 3, 3), "negative user count"},
	}
}

// TestScopedSumsRefusals pins the decoder's refusals of malformed
// version-2 frames, and that a row one counter long is not misread: the
// frame ends where its header says, the extra byte stays on the stream.
func TestScopedSumsRefusals(t *testing.T) {
	for name, c := range malformedScopedFrames() {
		f, err := NewDecoder(bytes.NewReader(c.data)).readSums(c.typ)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decoded %+v, err %v; want an error containing %q", name, f, err, c.want)
		}
	}
	long := scopedFrameBytes(MsgSumsFrame, 2, 4, 0, 2, 4, 1.5, 2, 1, 1, 0, -7, 9, 42)
	dec := NewDecoder(bytes.NewReader(long))
	f, err := dec.ReadSums()
	if err != nil || !slices.Equal(f.Counters, []int64{2, 1, 1, 0, -7, 9}) {
		t.Fatalf("frame with a trailing counter: %+v, %v", f, err)
	}
	if rest, _ := dec.r.Peek(8); len(rest) != 1 {
		t.Fatalf("%d bytes left behind the frame, want the 1 it did not declare", len(rest))
	}
	// A scoped frame cannot pose as a whole accumulator's state.
	if err := f.MergeInto(protocol.NewServer(4, 1.5)); err == nil {
		t.Error("scoped frame merged into a full accumulator")
	}
	domain := RawSums{D: 4, M: 2, Scale: 1.5, Scope: f.Scope, Counters: append(slices.Clone(f.Counters), f.Counters...)}
	if err := domain.MergeInto(hh.NewDomainServer(4, 2, 1.5, 1)); err == nil {
		t.Error("scoped domain frame merged into a full accumulator")
	}
}

// TestScopedRequestWire pins the request side: an unscoped request keeps
// its version-1 bytes, a scoped one round-trips under version 2 inside
// maxScalarWire, and anything else is refused at decode — never read as
// some other request.
func TestScopedRequestWire(t *testing.T) {
	encode := func(m Msg) []byte {
		b, err := appendMsg(nil, &m)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		return b
	}
	for _, base := range []Msg{Sums(), DomainSums(), HashedDomainSums(1<<24, 4096, math.MaxUint64), ShardSums(4095)} {
		v1 := encode(base)
		if v1[1] != queryWireVersion {
			t.Errorf("unscoped request type %d has version %d", base.Type, v1[1])
		}
		m := base
		m.L, m.R = MaxSumsD-1, MaxSumsD
		wire := encode(m)
		if wire[1] != scopedSumsVersion || !bytes.Equal(wire[2:len(v1)], v1[2:]) || len(wire) > maxScalarWire {
			t.Errorf("scoped request type %d: % x (unscoped % x)", base.Type, wire, v1)
		}
		var got Msg
		if n, err := decodeScalarInto(wire, &got); err != nil || n != len(wire) || got != m {
			t.Errorf("scoped request type %d decoded to %+v (%d of %d bytes, %v)", base.Type, got, n, len(wire), err)
		}
		for cut := 1; cut < len(wire); cut++ {
			if _, err := decodeScalarInto(wire[:cut], new(Msg)); err != errShortMsg {
				t.Errorf("request type %d cut at %d: %v, want errShortMsg", base.Type, cut, err)
			}
		}
		for name, bad := range map[string][]byte{
			"version 3": append([]byte{wire[0], 3}, wire[2:]...),
			"L = 0":     append(slices.Clone(wire[:len(v1)]), 0, 5),
			"L > R":     append(slices.Clone(wire[:len(v1)]), 5, 4),
			"R too big": binary.AppendUvarint(append(slices.Clone(wire[:len(v1)]), 1), MaxSumsD+1),
		} {
			if _, err := decodeScalarInto(bad, new(Msg)); err == nil || err == errShortMsg {
				t.Errorf("request type %d, %s: decoded (err %v)", base.Type, name, err)
			}
		}
		for _, bad := range []Msg{{L: 0, R: 3}, {L: 4, R: 3}, {L: -1, R: -1}} {
			bad.Type, bad.Item, bad.K, bad.Shard = base.Type, base.Item, base.K, base.Shard
			if _, err := appendMsg(nil, &bad); err == nil {
				t.Errorf("request type %d encoded scope [%d..%d]", base.Type, bad.L, bad.R)
			}
		}
	}
	// Every mode range-checks the scope of its own request and of a
	// shard's before anything derives columns from it.
	for _, mode := range scopeModes(8, 1) {
		for _, req := range []Msg{mode.SumsRequest(), ShardSums(0)} {
			req.L, req.R = 3, 9
			if err := mode.ValidateRead(req); err == nil || !strings.Contains(err.Error(), "sums scope [3..9] invalid for d=8") {
				t.Errorf("%s: request type %d over [3..9] validated: %v", mode.Name(), req.Type, err)
			}
			req.R = 8
			if err := mode.ValidateRead(req); err != nil {
				t.Errorf("%s: request type %d over [3..8]: %v", mode.Name(), req.Type, err)
			}
		}
	}
}

// TestScopedFrameBound holds the frame to the paper's count: for every
// (L, R) at d ∈ {8, 128, 1024} a scoped row is at most 1 + orders +
// 2·log₂ d counters, and at the gateway-hashed workload's g = 256 every
// point scope's frame is under 8 KB where the full frame is half a
// megabyte.
func TestScopedFrameBound(t *testing.T) {
	for _, d := range []int{8, 128, 1024} {
		bound := 1 + dyadic.NumOrders(d) + 2*dyadic.Log2(d)
		for l := 1; l <= d; l++ {
			for r := l; r <= d; r++ {
				if got := protocol.ScopedStride(d, l, r); got > bound {
					t.Fatalf("d=%d: a row scoped to [%d..%d] has %d counters, bound %d", d, l, r, got, bound)
				}
			}
		}
	}
	const d, g = 1024, 256
	mode := DomainMode(d, hh.LolohaEncoding(1<<18, g, 7), 100)
	st := liveState(rng.New(3, 4), d, mode, 1<<16)
	full, err := answerBytes(st, mode.SumsRequest())
	if err != nil {
		t.Fatal(err)
	}
	worst := 0
	for tt := 1; tt <= d; tt++ {
		wire, err := answerBytes(st, scopedRequest(mode, Scope{1, tt}))
		if err != nil {
			t.Fatal(err)
		}
		f, err := mode.ReadSums(NewDecoder(bytes.NewReader(wire)))
		if err != nil {
			t.Fatal(err)
		}
		if bound := g * (1 + dyadic.NumOrders(d) + 2*dyadic.Log2(d)); len(f.Counters) > bound {
			t.Fatalf("point scope [1..%d]: %d counters, bound %d", tt, len(f.Counters), bound)
		}
		worst = max(worst, len(wire))
	}
	if worst > 8<<10 || len(full) < 60*worst {
		t.Errorf("largest point-scoped frame %d bytes (want ≤ 8 KB), full frame %d", worst, len(full))
	}
}

// TestScopedFoldAllocatesNoMatrix pins the gateway's fold of scoped
// frames: building the state and answering a cold top-k from it
// allocates a small fraction of one rows × RawStride(d) matrix, so none
// was allocated or zeroed on the way.
func TestScopedFoldAllocatesNoMatrix(t *testing.T) {
	const d, g = 1024, 256
	mode := DomainMode(d, hh.LolohaEncoding(1<<12, g, 7), 100)
	sc := Scope{1, d - 1}
	frames := []RawSums{liveState(rng.New(1, 2), d, mode, 1000).Sums(sc), liveState(rng.New(3, 4), d, mode, 1000).Sums(sc)}
	q := DomainQuery(QueryTopK, 0, d-1, 0, 10)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fs := cloneFrames(frames)
			b.StartTimer()
			gathered, err := NewGathered(mode, fs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := answerBytes(gathered, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	if matrix := int64(g * protocol.RawStride(d) * 8); res.AllocedBytesPerOp() > matrix/16 {
		t.Errorf("folding two scoped frames and answering allocates %d bytes; a full matrix is %d", res.AllocedBytesPerOp(), matrix)
	}
}

// FuzzScopedSums is the differential fuzz of the scoped path. Every
// input is used twice. As bytes: both sums decoders take data and must
// refuse it or return a frame that is structurally sound and survives
// its own re-encoding. As parameters: one to three nodes at a small
// horizon — live two-shard states fed random records on even nodes,
// states over arbitrary counters on odd ones — go through checkScoped
// at the scope [L..R] the input picks.
func FuzzScopedSums(f *testing.F) {
	valid := scopedFrameBytes(MsgSumsFrame, 2, 4, 0, 2, 4, 1.5, 2, 1, 1, 0, -7, 9)
	f.Add(valid, uint8(3), uint8(0), uint8(1), uint64(1), uint16(0), uint16(7))
	f.Add(scopedFrameBytes(MsgDomainSumsFrame, 2, 2, 2, 1, 2, 3, 1, 0, 1, 5, 0, 0, 0, -5), uint8(4), uint8(1), uint8(2), uint64(2), uint16(3), uint16(9))
	f.Add(encodeSumsBytes(testSumsFrame(16, 2.5, 21)), uint8(2), uint8(2), uint8(3), uint64(3), uint16(1), uint16(1))
	f.Add(append(slices.Clone(valid), 42), uint8(0), uint8(0), uint8(3), uint64(4), uint16(0), uint16(0)) // row one long; d = 1
	for _, c := range malformedScopedFrames() {
		f.Add(c.data, uint8(1), uint8(len(c.data)), uint8(len(c.want)), uint64(len(c.data)), uint16(c.typ), uint16(5))
	}
	f.Fuzz(func(t *testing.T, data []byte, logd, kind, nodes uint8, seed uint64, l, r uint16) {
		for _, typ := range []MsgType{MsgSumsFrame, MsgDomainSumsFrame} {
			fr, err := NewDecoder(bytes.NewReader(data)).readSums(typ)
			if err != nil {
				continue
			}
			if err := fr.checkDims(typ); err != nil {
				t.Fatalf("decoded a frame its own header check refuses: %v", err)
			}
			if want := fr.rows() * protocol.ScopedStride(fr.D, fr.Scope.L, fr.Scope.R); len(fr.Counters) != want {
				t.Fatalf("decoded %d counters for %+v, want %d", len(fr.Counters), fr.Scope, want)
			}
			var buf bytes.Buffer
			enc := NewEncoder(&buf)
			if err := enc.encodeSums(typ, fr, nil); err != nil {
				t.Fatalf("re-encoding a decoded frame: %v", err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := NewDecoder(&buf).readSums(typ)
			if err != nil || fr.Scale == fr.Scale && !back.Equal(fr) {
				t.Fatalf("decode(encode(f)) = %+v (%v), f = %+v", back, err, fr)
			}
		}

		d := 1 << (logd % 5)
		sc := Scope{L: 1 + int(l)%d}
		sc.R = sc.L + int(r)%(d-sc.L+1)
		mode := scopeModes(d, 1.25)[int(kind)%3]
		g := rng.New(seed, 99)
		states := make([]State, 1+int(nodes)%3)
		for i := range states {
			if i%2 == 0 {
				states[i] = liveState(g, d, mode, 1+g.IntN(64))
				continue
			}
			st, err := mode.Fold([]RawSums{randomFullFrame(g, d, mode, 1.25)})
			if err != nil {
				t.Fatal(err)
			}
			states[i] = st
		}
		checkScoped(t, mode, g, d, sc, states)
	})
}
