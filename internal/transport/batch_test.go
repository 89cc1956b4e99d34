package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/rng"
)

func testBatch(n int) []Msg {
	g := rng.New(3, 9)
	ms := make([]Msg, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			ms = append(ms, Hello(i, g.IntN(9)))
		default:
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			ms = append(ms, FromReport(protocol.Report{User: i, Order: g.IntN(9), J: 1 + g.IntN(16), Bit: bit}))
		}
	}
	return ms
}

// TestBatchRoundTrip checks that batch frames survive the wire exactly,
// via both the batch-granular and the unbatching decode paths.
func TestBatchRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		ms := testBatch(n)
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.EncodeBatch(ms); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(pointQ(5)); err != nil { // frame after the batch
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}

		// Batch-granular path.
		dec := NewDecoder(bytes.NewReader(buf.Bytes()))
		got, err := dec.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			// An empty batch yields the next frame instead.
			if len(got) != 1 || got[0] != pointQ(5) {
				t.Fatalf("empty batch: got %+v", got)
			}
			continue
		}
		if len(got) != n {
			t.Fatalf("batch len: got %d, want %d", len(got), n)
		}
		for i := range got {
			if got[i] != ms[i] {
				t.Fatalf("msg %d: got %+v, want %+v", i, got[i], ms[i])
			}
		}
		if q, err := dec.NextBatch(); err != nil || len(q) != 1 || q[0] != pointQ(5) {
			t.Fatalf("trailing query: got %+v, %v", q, err)
		}
		if _, err := dec.NextBatch(); !errors.Is(err, io.EOF) {
			t.Fatalf("expected EOF, got %v", err)
		}

		// Unbatching path.
		dec = NewDecoder(bytes.NewReader(buf.Bytes()))
		for i := 0; i < n; i++ {
			m, err := dec.Next()
			if err != nil {
				t.Fatal(err)
			}
			if m != ms[i] {
				t.Fatalf("Next %d: got %+v, want %+v", i, m, ms[i])
			}
		}
		if m, err := dec.Next(); err != nil || m != pointQ(5) {
			t.Fatalf("trailing query via Next: got %+v, %v", m, err)
		}
	}
}

// TestBatchMixedConsumption interleaves Next and NextBatch over one
// batch frame: NextBatch must return only the unconsumed tail.
func TestBatchMixedConsumption(t *testing.T) {
	ms := testBatch(10)
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	for i := 0; i < 4; i++ {
		m, err := dec.Next()
		if err != nil || m != ms[i] {
			t.Fatalf("Next %d: got %+v, %v", i, m, err)
		}
	}
	tail, err := dec.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 6 {
		t.Fatalf("tail len: got %d, want 6", len(tail))
	}
	for i, m := range tail {
		if m != ms[4+i] {
			t.Fatalf("tail %d: got %+v, want %+v", i, m, ms[4+i])
		}
	}
}

// TestEmptyBatchFlood checks that a long run of empty batch frames is
// skipped iteratively: decoding must neither recurse (stack growth) nor
// return phantom messages.
func TestEmptyBatchFlood(t *testing.T) {
	const floods = 200000 // enough to overflow a stack if skipping recursed
	var buf bytes.Buffer
	for i := 0; i < floods; i++ {
		buf.Write([]byte{byte(MsgBatch), 0})
	}
	enc := NewEncoder(&buf)
	if err := enc.Encode(pointQ(9)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	dec := NewDecoder(bytes.NewReader(data))
	if m, err := dec.Next(); err != nil || m != pointQ(9) {
		t.Fatalf("Next through flood: got %+v, %v", m, err)
	}
	dec = NewDecoder(bytes.NewReader(data))
	if ms, err := dec.NextBatch(); err != nil || len(ms) != 1 || ms[0] != pointQ(9) {
		t.Fatalf("NextBatch through flood: got %+v, %v", ms, err)
	}
}

// TestPendingBufferReleased checks that the decoder does not pin a
// large batch's decode buffer for the lifetime of the connection: after
// a run of frames that leave it mostly unused — batches and scalars
// alike, through NextBatch and Next — it is let go, and not before.
func TestPendingBufferReleased(t *testing.T) {
	big := testBatch(2 * maxRetainedBatch)
	for _, scalar := range []bool{false, true} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.EncodeBatch(big); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < smallFramesToRelease+1; i++ {
			var err error
			if scalar {
				err = enc.Encode(big[0])
			} else {
				err = enc.EncodeBatch(big[:4])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(&buf)
		if ms, err := dec.NextBatch(); err != nil || len(ms) != len(big) {
			t.Fatalf("big batch: got %d msgs, %v", len(ms), err)
		}
		// A frame's use is judged when the next one starts, so the buffer
		// survives smallFramesToRelease small frames and goes with the
		// one after.
		for i := 0; i < smallFramesToRelease+1; i++ {
			var err error
			if scalar {
				_, err = dec.Next()
			} else {
				_, err = dec.NextBatch()
			}
			if err != nil {
				t.Fatal(err)
			}
			if held := cap(dec.pending) > maxRetainedBatch; held != (i < smallFramesToRelease) {
				t.Fatalf("scalar=%v: after small frame %d the big buffer is held=%v (cap %d)", scalar, i, held, cap(dec.pending))
			}
		}
	}
}

// TestPendingBufferRetainedWhileUsed pins the other half: a stream of
// batches above maxRetainedBatch reuses one decode buffer instead of
// reallocating it on every frame.
func TestPendingBufferRetainedWhileUsed(t *testing.T) {
	frame, err := appendBatch(nil, MsgBatch, testBatch(2*maxRetainedBatch))
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(nil)
	dec := NewDecoder(src)
	next := func() {
		src.Reset(frame)
		if ms, err := dec.NextBatch(); err != nil || len(ms) != 2*maxRetainedBatch {
			t.Fatalf("got %d msgs, %v", len(ms), err)
		}
	}
	next() // sizes the buffer
	if allocs := testing.AllocsPerRun(20, next); allocs != 0 {
		t.Fatalf("steady %d-message frames allocate %v times per frame", 2*maxRetainedBatch, allocs)
	}
}

// TestV1QueryRefused pins the retirement of the v1 point-query pair: a
// type-4 or type-5 frame — scalar or inside a batch, with or without an
// ingest contract — is refused at its type byte with the one error that
// names the replacement, and the encoder no longer produces either.
func TestV1QueryRefused(t *testing.T) {
	const want = "transport: v1 point query removed; send QueryV2(QueryPoint, t, 0)"
	ingest := BoolMode(16, 1).Ingest()
	for name, data := range map[string][]byte{
		"query":          {byte(MsgQuery), 9},
		"estimate":       {byte(MsgEstimate), 9, 0, 0, 0, 0, 0, 0, 0x0a, 0x40},
		"query in batch": {byte(MsgBatch), 2, byte(MsgHello), 1, 0, byte(MsgQuery), 9},
	} {
		if _, err := NewDecoder(bytes.NewReader(data)).NextBatch(); err == nil || err.Error() != want {
			t.Errorf("%s without a contract: got %v, want %q", name, err, want)
		}
		if f, err := NewDecoder(bytes.NewReader(data)).NextFrame(&ingest); err == nil || err.Error() != want {
			t.Errorf("%s under the Boolean contract: got %+v, %v, want %q", name, f, err, want)
		}
	}
	for _, typ := range []MsgType{MsgQuery, MsgEstimate} {
		if err := NewEncoder(io.Discard).Encode(Msg{Type: typ}); err == nil {
			t.Errorf("encoder still writes retired message type %d", typ)
		}
	}
}

// TestBatchTruncated checks that every strict prefix of a batch frame
// fails with a clean error rather than a panic or a silent short read.
func TestBatchTruncated(t *testing.T) {
	ms := testBatch(5)
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.EncodeBatch(ms); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]))
		_, err := dec.NextBatch()
		if err == nil {
			t.Fatalf("cut %d: expected error", cut)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: expected EOF-class error, got %v", cut, err)
		}
	}
}

// TestBatchCorrupt checks rejection of structurally invalid batches.
func TestBatchCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"nested batch":    {byte(MsgBatch), 1, byte(MsgBatch), 0},
		"huge length":     append([]byte{byte(MsgBatch)}, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"bad inner type":  {byte(MsgBatch), 1, 99, 0},
		"bad inner bit":   {byte(MsgBatch), 1, byte(MsgReport), 0, 0, 1, 7},
		"bad scalar type": {42},
	}
	for name, data := range cases {
		dec := NewDecoder(bytes.NewReader(data))
		if _, err := dec.NextBatch(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestEncodeBatchRejects checks encoder-side validation.
func TestEncodeBatchRejects(t *testing.T) {
	enc := NewEncoder(io.Discard)
	if err := enc.EncodeBatch([]Msg{{Type: MsgBatch}}); err == nil {
		t.Error("nested batch: expected error")
	}
	if err := enc.EncodeBatch([]Msg{{Type: MsgReport, Bit: 0, J: 1}}); err == nil {
		t.Error("bad bit: expected error")
	}
	if err := enc.EncodeBatch(make([]Msg, MaxBatchLen+1)); err == nil {
		t.Error("oversized batch: expected error")
	}
}

// TestShardedCollector checks validation and accumulation through the
// collector, against a serial server.
func TestShardedCollector(t *testing.T) {
	const d = 64
	acc := protocol.NewSharded(d, 2.5, 4)
	c := NewShardedCollector(acc)

	serial := protocol.NewServer(d, 2.5)
	ms := []Msg{
		Hello(0, 3),
		FromReport(protocol.Report{User: 0, Order: 3, J: 2, Bit: 1}),
		FromReport(protocol.Report{User: 1, Order: 0, J: 64, Bit: -1}),
	}
	if err := c.SendBatch(7, ms); err != nil {
		t.Fatal(err)
	}
	serial.Register(3)
	serial.Ingest(protocol.Report{User: 0, Order: 3, J: 2, Bit: 1})
	serial.Ingest(protocol.Report{User: 1, Order: 0, J: 64, Bit: -1})
	for tt := 1; tt <= d; tt++ {
		if got, want := acc.EstimateAt(tt), serial.EstimateAt(tt); got != want {
			t.Fatalf("EstimateAt(%d): got %v, want %v", tt, got, want)
		}
	}
	hellos, reports, batches := c.Stats()
	if hellos != 1 || reports != 2 || batches != 1 {
		t.Fatalf("stats: got %d/%d/%d", hellos, reports, batches)
	}

	for name, m := range map[string]Msg{
		"hello order":  Hello(0, 7),
		"report order": FromReport(protocol.Report{Order: 9, J: 1, Bit: 1}),
		"report j":     FromReport(protocol.Report{Order: 0, J: 65, Bit: 1}),
		"report j=0":   FromReport(protocol.Report{Order: 0, J: 0, Bit: 1}),
		"bit":          {Type: MsgReport, J: 1},
		"query":        pointQ(3),
	} {
		if err := c.SendBatch(0, []Msg{m}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestStoreSendBatchAtomic pins run atomicity below the frame loop, for
// every mode and store shape: a run with one invalid message — out of
// range, off-mode or wrong-seed — applies (and journals) nothing, and
// the store still accepts the valid prefix afterwards.
func TestStoreSendBatchAtomic(t *testing.T) {
	const d, scale, m = 16, 2.0, 4
	enc := hashedTestEnc()
	rep := protocol.Report{User: 1, Order: 0, J: 1, Bit: 1}
	for _, tc := range []struct {
		name   string
		mode   Mode
		meta   persist.Meta
		good   []Msg
		poison []Msg
	}{
		{"bool", BoolMode(d, scale), persist.Meta{D: d, Scale: scale},
			[]Msg{Hello(1, 0), FromReport(rep)},
			[]Msg{FromReport(protocol.Report{User: 2, Order: 0, J: d + 1, Bit: 1}), DomainHello(2, 0, 0), pointQ(1)}},
		{"exact", DomainMode(d, hh.ExactEncoding(m), scale), persist.Meta{D: d, M: m, Scale: scale},
			[]Msg{DomainHello(1, 0, 0), FromDomainReport(0, rep)},
			[]Msg{{Type: MsgDomainReport, User: 2, Item: m + 5, Order: 0, J: 1, Bit: 1}, Hello(2, 0)}},
		{"hashed", DomainMode(d, enc, scale),
			persist.Meta{D: d, M: enc.M, G: enc.G, Encoding: enc.Name, HashSeed: enc.Seed, Scale: scale},
			[]Msg{HashedDomainHello(1, 0, 0, enc.Seed), FromDomainReport(0, rep)},
			[]Msg{HashedDomainHello(2, 0, 0, enc.Seed+1), DomainHello(2, 0, 0)}},
	} {
		stores := map[string]func(t *testing.T) Store{
			"collector": func(*testing.T) Store { return NewCollector(tc.mode, 2) },
			"shard-map": func(*testing.T) Store { return NewShardMap(tc.mode, 4, "n0") },
			"durable": func(t *testing.T) Store {
				dc, _, err := OpenDurableStore(NewCollector(tc.mode, 2), t.TempDir(), tc.meta, DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { dc.Close() })
				return dc
			},
		}
		for kind, mk := range stores {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				st := mk(t)
				for _, bad := range tc.poison {
					run := append(append(append([]Msg(nil), tc.good...), bad), tc.good[0])
					if err := st.SendBatch(0, run); err == nil {
						t.Fatalf("run with invalid message %+v accepted", bad)
					}
				}
				if h, r, b := st.Stats(); h != 0 || r != 0 || b != 0 || st.Users() != 0 {
					t.Fatalf("rejected runs left state behind: %d hellos, %d reports, %d batches, %d users", h, r, b, st.Users())
				}
				if dc, ok := st.(*Durable); ok && dc.DurabilityStats().LastSeq != 0 {
					t.Fatalf("rejected runs reached the WAL (record %d)", dc.DurabilityStats().LastSeq)
				}
				if err := st.SendBatch(1, tc.good); err != nil {
					t.Fatal(err)
				}
				if h, r, b := st.Stats(); h != 1 || r != 1 || b != 1 || st.Users() != 1 {
					t.Fatalf("stats after one valid run: %d hellos, %d reports, %d batches, %d users", h, r, b, st.Users())
				}
			})
		}
	}
}

// pointQ is the smallest read frame: what tests send when any scalar
// non-ingest frame, or a fence, will do.
func pointQ(t int) Msg { return QueryV2(QueryPoint, t, 0) }
