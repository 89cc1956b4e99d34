package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"slices"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// This file pins the write path's one-pass contract: a durable server
// journals the bytes a run arrived as, so for every frame the decoder
// accepts, what the write-ahead log holds must decode to exactly the
// runs the store was handed — whatever the varint spelling, wherever an
// in-batch read cut a run, and wherever the reader's window happened to
// end.

const (
	wireD     = 64
	wireScale = 3.0
	wireM     = 8
)

// wireCase is one protocol mode with the messages the tests build
// streams from.
type wireCase struct {
	name   string
	mode   Mode
	meta   persist.Meta
	hello  func(u int) wire.Msg
	report func(u, i int) wire.Msg
	read   wire.Msg // a valid in-batch read
	badQ   wire.Msg // a read frame that fails ValidateRead
	badRep wire.Msg // a report the Boolean contract refuses
}

func wireCases() []wireCase {
	enc := hashedTestEnc()
	rep := func(u, i int) protocol.Report {
		order := u % 4
		bit := int8(1)
		if (u+i)%3 == 0 {
			bit = -1
		}
		return protocol.Report{User: u, Order: order, J: 1 + (u*5+i*11)%(wireD>>uint(order)), Bit: bit}
	}
	overRange := protocol.Report{User: 1, Order: 0, J: wireD + 1, Bit: 1}
	return []wireCase{
		{
			name: "bool", mode: BoolMode(wireD, wireScale),
			meta:   persist.Meta{D: wireD, Scale: wireScale},
			hello:  func(u int) wire.Msg { return wire.Hello(u, u%4) },
			report: func(u, i int) wire.Msg { return wire.FromReport(rep(u, i)) },
			read:   wire.QueryV2(wire.QueryPoint, wireD/2, 0),
			badQ:   wire.QueryV2(wire.QueryPoint, wireD+1, 0),
			badRep: wire.FromReport(overRange),
		},
		{
			name: "exact", mode: DomainMode(wireD, hh.ExactEncoding(wireM), wireScale),
			meta:   persist.Meta{D: wireD, M: wireM, Scale: wireScale},
			hello:  func(u int) wire.Msg { return wire.DomainHello(u, u%wireM, u%4) },
			report: func(u, i int) wire.Msg { return wire.FromDomainReport(u%wireM, rep(u, i)) },
			read:   wire.DomainQuery(wire.QueryPointItem, 3, wireD/2, 0, 0),
			badQ:   wire.DomainQuery(wire.QueryPointItem, wireM, 1, 0, 0),
			badRep: wire.FromDomainReport(0, overRange),
		},
		{
			name: "hashed", mode: DomainMode(wireD, enc, wireScale),
			meta:   persist.Meta{D: wireD, M: enc.M, G: enc.G, Encoding: enc.Name, HashSeed: enc.Seed, Scale: wireScale},
			hello:  func(u int) wire.Msg { return wire.HashedDomainHello(u, u%enc.G, u%4, enc.Seed) },
			report: func(u, i int) wire.Msg { return wire.FromDomainReport(u%enc.G, rep(u, i)) },
			read:   wire.DomainQuery(wire.QueryPointItem, 12345, wireD/2, 0, 0),
			badQ:   wire.DomainQuery(wire.QueryPointItem, enc.M, 1, 0, 0),
			badRep: wire.FromDomainReport(0, overRange),
		},
	}
}

// ingest builds users' worth of hello-plus-reports messages, user ids
// starting at first (large ones, so ids take two and three bytes).
func (c wireCase) ingest(first, users int) []wire.Msg {
	var ms []wire.Msg
	for u := first; u < first+users; u++ {
		ms = append(ms, c.hello(u))
		for i := 0; i < 5; i++ {
			ms = append(ms, c.report(u, i))
		}
	}
	return ms
}

// overlong respells the canonical scalar encoding of an ingest message
// with every uvarint one byte longer than it needs to be (continuation
// bit on its last byte, then a zero byte) — a spelling binary.Uvarint and
// binary.ReadUvarint both accept. A report's trailing bit byte is not a
// varint and keeps its one byte; ten-byte varints have no room to grow.
func overlong(canonical []byte, typ wire.MsgType) []byte {
	out := []byte{canonical[0]}
	body := canonical[1:]
	hasBit := typ == wire.MsgReport || typ == wire.MsgDomainReport
	for len(body) > 0 {
		if hasBit && len(body) == 1 {
			out = append(out, body[0])
			break
		}
		_, n := binary.Uvarint(body)
		if n < binary.MaxVarintLen64 {
			out = append(append(out, body[:n-1]...), body[n-1]|0x80, 0)
		} else {
			out = append(out, body[:n]...)
		}
		body = body[n:]
	}
	return out
}

// frame encodes ms as one batch frame of the given type; padded spells
// the ingest messages' varints overlong.
func frame(t testing.TB, typ wire.MsgType, ms []wire.Msg, reads wire.FrameSet, padded bool) []byte {
	t.Helper()
	b := wire.AppendBatchHeader(nil, typ, len(ms))
	for i := range ms {
		one, err := appendMsg(nil, &ms[i])
		if err != nil {
			t.Fatal(err)
		}
		if padded && !reads.Has(ms[i].Type) {
			one = overlong(one, ms[i].Type)
		}
		b = append(b, one...)
	}
	return b
}

// streamConn is the client side of a connection as the frame loop sees
// it: reads deliver a fixed byte stream at most chunk bytes at a time,
// so the decoder's buffered window ends wherever chunk makes it; writes
// (answers and acks) are dropped.
type streamConn struct {
	net.Conn
	r     io.Reader
	chunk int
}

func (c *streamConn) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.r.Read(p)
}
func (c *streamConn) Write(p []byte) (int, error) { return len(p), nil }

// recMsgs is the Msg view of a run of records decoded under c.
func recMsgs(c wire.Ingest, run []wire.Rec) []wire.Msg {
	ms := make([]wire.Msg, len(run))
	for i, r := range run {
		ms[i] = wire.Msg{Type: c.Report, User: r.User, Item: int32(r.Item), Order: int16(r.Order), J: int(r.J), Bit: r.Bit}
		if r.Bit == 0 {
			ms[i].Type = c.Hello
			if c.Hello == wire.MsgHashedDomainHello {
				ms[i].Seed = c.Seed
			}
		}
	}
	return ms
}

// auditStore sits where the frame loop's trusted entry is: it checks
// that the wire bytes it is handed are a spelling of exactly the run it
// is handed — as a whole and message by message, each record's Len bytes
// of them — keeps a copy of the run, and passes both on.
type auditStore struct {
	Store
	t    testing.TB
	runs [][]wire.Msg
}

func (a *auditStore) Apply(shard int, run []wire.Rec, raw []byte) error {
	ms := recMsgs(a.Mode().Ingest(), run)
	got, err := wire.NewDecoder(bytes.NewReader(append(wire.AppendBatchHeader(nil, wire.MsgBatch, len(run)), raw...))).NextBatch()
	if err != nil || !slices.Equal(got, ms) {
		a.t.Errorf("wire bytes of a %d-message run decode to %d messages (%v)", len(run), len(got), err)
	}
	rest := raw
	for i, r := range run {
		if m, n, err := decodeOne(rest[:min(int(r.Len), len(rest))]); err != nil || n != int(r.Len) || m != ms[i] {
			a.t.Fatalf("record %d claims %d wire bytes; they decode to %+v (%d bytes, %v), want %+v", i, r.Len, m, n, err, ms[i])
		}
		rest = rest[r.Len:]
	}
	if len(rest) != 0 {
		a.t.Errorf("run of %d records came with %d wire bytes too many", len(run), len(rest))
	}
	a.runs = append(a.runs, ms)
	return a.Store.Apply(shard, run, raw)
}

// serveStream runs the real frame loop over stream against a fresh
// durable store in dir, then closes the store without a snapshot. It
// returns the runs the store was handed and the loop's verdict on the
// stream.
func serveStream(t testing.TB, c wireCase, dir string, stream []byte, chunk int) ([][]wire.Msg, error) {
	t.Helper()
	dur, _, err := OpenDurableStore(NewCollector(c.mode, 2), dir, c.meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	audit := &auditStore{Store: dur, t: t}
	srv := NewServer(c.mode, c.mode.Name(), func(id int) Session { return storeSession{audit, id} }, nil)
	serveErr := srv.serveConn(0, &streamConn{r: bytes.NewReader(stream), chunk: chunk})
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	return audit.runs, serveErr
}

// readLog reads the write-ahead log in dir back: one decoded run and
// one raw payload per record.
func readLog(t testing.TB, dir string) (runs [][]wire.Msg, payloads [][]byte) {
	t.Helper()
	_, _, err := persist.ReplayWAL(dir, persist.ReplayOptions{}, func(seq uint64, payload []byte) error {
		dec := wire.NewDecoder(bytes.NewReader(payload))
		ms, err := dec.NextBatch()
		if err != nil {
			return err
		}
		if _, err := dec.NextBatch(); !errors.Is(err, io.EOF) {
			t.Errorf("record %d holds more than one frame (%v)", seq, err)
		}
		runs = append(runs, slices.Clone(ms))
		payloads = append(payloads, bytes.Clone(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs, payloads
}

// checkJournalIsApplied is the property: the log decodes to exactly the
// applied runs, and a store recovered from it (no snapshot was cut)
// holds raw sums bit-for-bit equal to a fresh store fed those runs
// serially through the validating entry.
func checkJournalIsApplied(t testing.TB, c wireCase, dir string, applied [][]wire.Msg) {
	t.Helper()
	logged, _ := readLog(t, dir)
	if !reflect.DeepEqual(logged, applied) {
		t.Fatalf("log holds %d runs, store was handed %d, or their messages differ", len(logged), len(applied))
	}
	recovered, rec, err := OpenDurableStore(NewCollector(c.mode, 1), dir, c.meta, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if rec.Replayed != len(applied) {
		t.Fatalf("recovery replayed %d records, want %d", rec.Replayed, len(applied))
	}
	serial := NewCollector(c.mode, 1)
	for _, run := range applied {
		if err := ingestRun(serial, 0, run); err != nil {
			t.Fatalf("an applied run does not validate: %v", err)
		}
	}
	if got, want := sumsOf(t, recovered, -1), sumsOf(t, serial, -1); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered sums %+v, serial reference %+v", got, want)
	}
}

// mixedStream is a connection's worth of every frame shape that carries
// ingest: an acked batch longer than the decoder's 4 KiB window, a
// legacy batch two reads cut into three runs, a bare scalar report
// outside any batch, and a short acked batch. It returns the stream and
// the runs a store must be handed for it.
func mixedStream(t testing.TB, c wireCase, padded bool) (stream []byte, runs [][]wire.Msg) {
	t.Helper()
	reads := c.mode.Ingest().Reads
	big := c.ingest(1<<14, 150) // 900 messages of 6–9 bytes each
	a, b, tail := c.ingest(100, 20), c.ingest(1<<21, 20), c.ingest(7, 1)
	legacy := slices.Concat(a, []wire.Msg{c.read}, b, []wire.Msg{c.read, c.mode.SumsRequest()}, tail)
	lone := c.report(100, 9)
	last := c.ingest(300, 3)

	stream = frame(t, wire.MsgBatchAcked, big, reads, padded)
	stream = append(stream, frame(t, wire.MsgBatch, legacy, reads, padded)...)
	one, err := appendMsg(nil, &lone)
	if err != nil {
		t.Fatal(err)
	}
	if padded {
		one = overlong(one, lone.Type)
	}
	stream = append(stream, one...)
	stream = append(stream, frame(t, wire.MsgBatchAcked, last, reads, padded)...)
	return stream, [][]wire.Msg{big, a, b, tail, {lone}, last}
}

// TestJournalIsAppliedRuns drives mixedStream through the frame loop
// into a durable store for every mode, in canonical and overlong
// spelling, with the reader handing the decoder 1…64 bytes at a time
// (below wire.MaxMsgLen every message reaches the general decoder one
// refill at a time; above it the kernel runs on windows a few messages
// long, so every hand-over between the two is crossed) and all at once.
func TestJournalIsAppliedRuns(t *testing.T) {
	for _, c := range wireCases() {
		for _, padded := range []bool{false, true} {
			stream, want := mixedStream(t, c, padded)
			for chunk := 1; chunk <= 65; chunk++ {
				if chunk == 65 {
					chunk = len(stream)
				}
				dir := t.TempDir()
				applied, err := serveStream(t, c, dir, stream, chunk)
				if err != nil {
					t.Fatalf("%s padded=%v chunk=%d: %v", c.name, padded, chunk, err)
				}
				if !reflect.DeepEqual(applied, want) {
					t.Fatalf("%s padded=%v chunk=%d: store was handed %d runs, want %d, or their messages differ",
						c.name, padded, chunk, len(applied), len(want))
				}
				checkJournalIsApplied(t, c, dir, applied)
				if padded {
					continue
				}
				// A canonical sender's record is the frame re-encoding
				// the run would have produced: the log's bytes did not move.
				_, payloads := readLog(t, dir)
				for i, run := range applied {
					reenc, err := appendBatch(nil, wire.MsgBatch, run)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(payloads[i], reenc) {
						t.Fatalf("%s chunk=%d: record %d is not the canonical encoding of its run", c.name, chunk, i+1)
					}
				}
			}
		}
	}
}

// TestServedBatchAtomicOnDurable: over a socket, a frame with one bad
// message anywhere — a malformed query between two runs of reports, an
// out-of-range report after a run of good ones — drops the connection
// having journaled nothing, so a reopen finds an empty log.
func TestServedBatchAtomicOnDurable(t *testing.T) {
	for _, c := range wireCases() {
		good := c.ingest(10, 4)
		for name, poisoned := range map[string][]byte{
			"malformed-query":     frame(t, wire.MsgBatch, slices.Concat(good, []wire.Msg{c.badQ}, good), 0, false),
			"out-of-range-report": frame(t, wire.MsgBatchAcked, append(slices.Clone(good), c.badRep), 0, false),
		} {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				dur, _, err := OpenDurableStore(NewCollector(c.mode, 2), dir, c.meta, DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				srv := NewIngestServer(dur)
				addr, closeSrv := startServer(t, srv)
				conn, _, _ := dialIngest(t, addr)
				defer conn.Close()
				if _, err := conn.Write(poisoned); err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Read(make([]byte, 1)); err == nil {
					t.Fatal("server answered a poisoned frame instead of dropping the connection")
				}
				closeSrv()
				if h, r, b := dur.Stats(); h != 0 || r != 0 || b != 0 {
					t.Fatalf("poisoned frame applied %d hellos, %d reports, %d batches", h, r, b)
				}
				if err := dur.Close(); err != nil {
					t.Fatal(err)
				}
				if logged, _ := readLog(t, dir); len(logged) != 0 {
					t.Fatalf("poisoned frame left %d records in the log", len(logged))
				}
				_, rec, err := OpenDurableStore(NewCollector(c.mode, 1), dir, c.meta, DurableOptions{})
				if err != nil || rec.Replayed != 0 {
					t.Fatalf("reopen replayed %d records (%v), want an empty log", rec.Replayed, err)
				}
			})
		}
	}
}

// TestMaximalFrameFitsOneRecord pins the relation journaling received
// bytes rests on (re-encoding used to hide it): the bytes of a maximal
// legal frame — MaxBatchLen messages of wire.MaxMsgLen bytes under a
// batch header — fit one WAL record, and their offsets fit the decoder's
// uint32 bookkeeping.
func TestMaximalFrameFitsOneRecord(t *testing.T) {
	const maximal = 1 + binary.MaxVarintLen32 + wire.MaxBatchLen*wire.MaxMsgLen
	if maximal > persist.MaxRecordLen {
		t.Fatalf("a maximal frame is %d bytes, a WAL record holds %d", maximal, persist.MaxRecordLen)
	}
	if uint64(maximal) > uint64(^uint32(0)) {
		t.Fatalf("a maximal frame is %d bytes, past uint32 offsets", maximal)
	}
}

// FuzzJournalWire feeds arbitrary bytes to the frame loop of a durable
// server of each mode, the reader handing them over chunk bytes at a
// time: whatever prefix of the stream the loop accepts, every run's wire
// bytes must spell that run (auditStore) and the log must decode to
// exactly the applied runs and recover to their serial sums.
func FuzzJournalWire(f *testing.F) {
	for mode, c := range wireCases() {
		for _, padded := range []bool{false, true} {
			stream, _ := mixedStream(f, c, padded)
			f.Add(stream, uint8(mode), uint8(0))
			f.Add(stream[:len(stream)/2], uint8(mode), uint8(50))
		}
		good := c.ingest(10, 2)
		f.Add(frame(f, wire.MsgBatch, slices.Concat(good, []wire.Msg{c.badQ}, good), 0, false), uint8(mode), uint8(3))
		f.Add(frame(f, wire.MsgBatchAcked, append(slices.Clone(good), c.badRep), 0, true), uint8(mode), uint8(64))
	}
	cases := wireCases()
	f.Fuzz(func(t *testing.T, stream []byte, mode, chunk uint8) {
		c := cases[int(mode)%len(cases)]
		n := int(chunk)
		if n == 0 {
			n = len(stream) + 1
		}
		dir := t.TempDir()
		applied, _ := serveStream(t, c, dir, stream, n) // any verdict on the stream is fine
		checkJournalIsApplied(t, c, dir, applied)
	})
}
