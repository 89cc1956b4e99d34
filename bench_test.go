package rtf_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"rtf/internal/bitvec"
	"rtf/internal/cluster"
	"rtf/internal/consistency"
	"rtf/internal/core"
	"rtf/internal/dyadic"
	"rtf/internal/eval"
	"rtf/internal/hh"
	"rtf/internal/membership"
	"rtf/internal/obs"
	"rtf/internal/persist"
	"rtf/internal/probmath"
	"rtf/internal/protocol"
	"rtf/internal/rng"
	"rtf/internal/sim"
	"rtf/internal/transport"
	"rtf/internal/wire"
	"rtf/internal/workload"
	"rtf/ldp"
)

// ---------------------------------------------------------------------------
// One benchmark per reproduction experiment (quick scale). These are the
// regeneration entry points for every experiment in README.md's table;
// the full-scale numbers come from cmd/rtf-experiments.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := eval.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, eval.Config{Quick: true, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpE01ErrorVsK(b *testing.B)           { benchExperiment(b, "E1") }
func BenchmarkExpE02ErrorVsD(b *testing.B)           { benchExperiment(b, "E2") }
func BenchmarkExpE03ErrorVsN(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkExpE04ErrorVsEps(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkExpE05CGapScaling(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkExpE06PrivacyExact(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkExpE07Dyadic(b *testing.B)             { benchExperiment(b, "E7") }
func BenchmarkExpE08Unbiasedness(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkExpE09CentralVsLocal(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkExpE10Consistency(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkExpE11HoeffdingBound(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkExpE12OnlineOffline(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkExpE13FutureRandVsBun(b *testing.B)    { benchExperiment(b, "E13") }
func BenchmarkExpE14NaiveCrossover(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkExpE15LossRobustness(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkExpE16DomainTracking(b *testing.B)     { benchExperiment(b, "E16") }
func BenchmarkExpE17AnnulusGeometry(b *testing.B)    { benchExperiment(b, "E17") }
func BenchmarkExpE18AnnulusAblation(b *testing.B)    { benchExperiment(b, "E18") }
func BenchmarkExpE19VariancePrediction(b *testing.B) { benchExperiment(b, "E19") }
func BenchmarkExpE20MisspecifiedK(b *testing.B)      { benchExperiment(b, "E20") }

// ---------------------------------------------------------------------------
// Micro-benchmarks: the hot paths of the library.

// BenchmarkAnnulusExact measures the one-time exact parameter computation
// (big.Float, precision k+128 bits) shared by all users.
func BenchmarkAnnulusExact(b *testing.B) {
	for _, k := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := probmath.NewFutureRand(k, 1.0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCGapLogSpace measures the float64 cross-check path.
func BenchmarkCGapLogSpace(b *testing.B) {
	p, err := probmath.NewFutureRand(1024, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.CGapLogSpace()
	}
}

// BenchmarkComposedSample measures one draw of R̃(b) — the per-user
// initialization cost of FutureRand (M.init draws R̃(1^k) once).
func BenchmarkComposedSample(b *testing.B) {
	for _, k := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			p, err := probmath.NewFutureRand(k, 1.0)
			if err != nil {
				b.Fatal(err)
			}
			c := core.NewComposed(p.Annulus)
			g := rng.New(1, 2)
			in := bitvec.Ones(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Sample(g, in)
			}
		})
	}
}

// BenchmarkPerturb measures the per-report client cost (Algorithm 3,
// lines 12–17), for zero and non-zero inputs.
func BenchmarkPerturb(b *testing.B) {
	f, err := core.NewFutureRandFactory(1<<20, 64, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	g := rng.New(3, 4)
	b.Run("zero", func(b *testing.B) {
		m := f.NewInstance(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%(1<<20) == 0 {
				m = f.NewInstance(g) // stay within the instance's L budget
			}
			m.Perturb(0)
		}
	})
	b.Run("nonzero", func(b *testing.B) {
		// Fresh instance per 64 non-zeros (the k budget).
		m := f.NewInstance(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				m = f.NewInstance(g)
			}
			m.Perturb(1)
		}
	})
}

// clientGrid is the sparsity axis of the client benchmarks; clientBurst
// is the fleet-online harness's unit of work (bench/rtf-bench): one
// cohort of users advanced through one block of periods, user-major.
var clientGrid = []int{1, 8, 64, 128}

const (
	clientCohort = 8192
	clientBlock  = 32
)

func clientFactory(b *testing.B, d, k int) *ldp.ClientFactory {
	b.Helper()
	f, err := ldp.NewClientFactory(d, ldp.WithSparsity(k), ldp.WithEpsilon(1))
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkClientObserve measures what one period costs the shipped
// ldp.Client (FutureRand) in the harness's shape: per-user seeds, an
// 8,192-user cohort advanced 32 periods at a time, each user changing
// value once. The paper's pre-computation claim (Section 5.3) is that
// this is O(1): ns/period must be flat in both d and k.
func BenchmarkClientObserve(b *testing.B) {
	for _, d := range []int{256, 1024, 16384} {
		for _, k := range clientGrid {
			b.Run(fmt.Sprintf("d=%d/k=%d", d, k), func(b *testing.B) {
				f := clientFactory(b, d, k)
				clients := make([]*ldp.Client, clientCohort)
				reports, block := 0, d/clientBlock // start by building the cohort
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if block == d/clientBlock {
						b.StopTimer()
						for u := range clients {
							c, err := f.NewClient(u, int64(i)*1_000_003+int64(u))
							if err != nil {
								b.Fatal(err)
							}
							clients[u] = c
						}
						block = 0
						b.StartTimer()
					}
					for u, c := range clients {
						change := 1 + u%d
						for t := block*clientBlock + 1; t <= (block+1)*clientBlock; t++ {
							if _, ok := c.Observe(t >= change); ok {
								reports++
							}
						}
					}
					block++
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*clientCohort*clientBlock), "ns/period")
				if reports == 0 {
					b.Fatal("no client reported")
				}
			})
		}
	}
}

// BenchmarkNewClient measures M.init for the shipped client — the one
// cost that may grow with k (b̃ = R̃(1^k) is k coin flips).
func BenchmarkNewClient(b *testing.B) {
	for _, k := range clientGrid {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			f := clientFactory(b, 1024, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.NewClient(i, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerIngest measures report ingestion (Algorithm 2, line 5).
func BenchmarkServerIngest(b *testing.B) {
	srv := protocol.NewServer(1024, 100)
	r := protocol.Report{User: 1, Order: 3, J: 17, Bit: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Ingest(r)
	}
}

// BenchmarkEstimateSeries measures producing all d online estimates.
func BenchmarkEstimateSeries(b *testing.B) {
	for _, d := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			srv := protocol.NewServer(d, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.EstimateSeries()
			}
		})
	}
}

// BenchmarkFastSim measures a full fast-engine protocol run at realistic
// scale (the engine behind E1–E4 and the examples).
func BenchmarkFastSim(b *testing.B) {
	g := rng.New(7, 8)
	w, err := (workload.UniformGen{N: 100000, D: 1024, K: 8}).Generate(g)
	if err != nil {
		b.Fatal(err)
	}
	sys := sim.Framework{Kind: protocol.FutureRand, Eps: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(w, g.Split()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSim measures the exact engine: the shipped ldp client
// and server, one client per user, the reference the fast engines are
// tested against.
func BenchmarkExactSim(b *testing.B) {
	g := rng.New(9, 10)
	w, err := (workload.UniformGen{N: 1000, D: 256, K: 4}).Generate(g)
	if err != nil {
		b.Fatal(err)
	}
	sys := sim.Exact{Protocol: ldp.FutureRand, Eps: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(w, g.Split()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsistencySmooth measures the offline post-processing.
func BenchmarkConsistencySmooth(b *testing.B) {
	const d = 4096
	tr := dyadic.NewTree(d)
	g := rng.New(11, 12)
	est := make([]float64, tr.Size())
	for i := range est {
		est[i] = g.Normal()
	}
	vars := make([]float64, dyadic.NumOrders(d))
	for h := range vars {
		vars[h] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consistency.Smooth(tr, est, vars)
	}
}

// BenchmarkTransportRoundTrip measures wire encode+decode of one report.
func BenchmarkTransportRoundTrip(b *testing.B) {
	var sink writableBuffer
	enc := wire.NewEncoder(&sink)
	m := wire.FromReport(protocol.Report{User: 12345, Order: 5, J: 321, Bit: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.reset()
		if err := enc.Encode(m); err != nil {
			b.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// The client half of the wire: what a client pays to encode a batch of
// reports and to decode an answer, in process. End to end these sit
// inside fleet-online's reports_per_s and query_p95_ms.

// loopReader serves its bytes over and over, so one Decoder reads the
// same frame once per iteration through its own buffer refills, the way
// a client reads answers off a connection.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// ackReader is a client's side of an acked ingest stream: after an
// optional prefix (served in reads of at most 4 KiB) every Read returns
// exactly one positive batch ack, as a socket does when the server's
// acks arrive one per write.
type ackReader struct{ prefix []byte }

func (r *ackReader) Read(p []byte) (int, error) {
	if len(r.prefix) > 0 {
		n := copy(p[:min(len(p), 4<<10)], r.prefix)
		r.prefix = r.prefix[n:]
		return n, nil
	}
	return copy(p, []byte{byte(wire.MsgBatchAck), 1}), nil
}

// BenchmarkIngestAckRead measures a client's read of one batch ack per
// iteration, each a refill from the source: /fresh on a decoder still on
// its small read buffer, /grown on one that a 1,024-value Series answer
// moved to the large buffer, whose later refills pass through the
// reader that holds what the small buffer had buffered.
func BenchmarkIngestAckRead(b *testing.B) {
	var series bytes.Buffer
	enc := wire.NewEncoder(&series)
	if err := enc.EncodeAnswer(wire.AnswerFrame{Kind: wire.QuerySeries, Values: make([]float64, 1024)}); err != nil {
		b.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		grown bool
	}{{"fresh", false}, {"grown", true}} {
		b.Run(c.name, func(b *testing.B) {
			src := new(ackReader)
			if c.grown {
				src.prefix = series.Bytes()
			}
			dec := wire.NewDecoder(src)
			if c.grown {
				if _, err := dec.ReadAnswer(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if applied, err := dec.ReadBatchAck(); err != nil || !applied {
					b.Fatalf("ack %d: applied=%v err=%v", i, applied, err)
				}
			}
		})
	}
}

// BenchmarkAnswerDecode measures a client's decode of one answer frame:
// a point answer, a 1,024-value Series (what fleet-online times) and a
// 256-value domain SeriesItem.
func BenchmarkAnswerDecode(b *testing.B) {
	values := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i)*0.37 - 12
		}
		return vs
	}
	for _, c := range []struct {
		name   string
		encode func(*wire.Encoder) error
		decode func(*wire.Decoder) error
	}{
		{"point",
			func(e *wire.Encoder) error {
				return e.EncodeAnswer(wire.AnswerFrame{Kind: wire.QueryPoint, L: 512, Values: values(1)})
			},
			func(d *wire.Decoder) error { _, err := d.ReadAnswer(); return err }},
		{"series-1024",
			func(e *wire.Encoder) error {
				return e.EncodeAnswer(wire.AnswerFrame{Kind: wire.QuerySeries, Values: values(1024)})
			},
			func(d *wire.Decoder) error { _, err := d.ReadAnswer(); return err }},
		{"domain-series-256",
			func(e *wire.Encoder) error {
				return e.EncodeDomainAnswer(wire.DomainAnswerFrame{Kind: wire.QuerySeriesItem, Item: 17, Values: values(256)})
			},
			func(d *wire.Decoder) error { _, err := d.ReadDomainAnswer(); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			enc := wire.NewEncoder(&buf)
			if err := c.encode(enc); err != nil {
				b.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				b.Fatal(err)
			}
			dec := wire.NewDecoder(&loopReader{b: buf.Bytes()})
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.decode(dec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClientEncodeBatch measures a client's encode of one acked
// batch of 2,048 Boolean reports (d = 1024, user ids of one to three
// bytes) on a warmed encoder.
func BenchmarkClientEncodeBatch(b *testing.B) {
	const reports, d = 2048, 1024
	g := rng.New(31, 32)
	ms := make([]wire.Msg, reports)
	for i := range ms {
		h := g.IntN(dyadic.NumOrders(d))
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		ms[i] = wire.FromReport(protocol.Report{User: g.IntN(1 << 18), Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit})
	}
	var sink writableBuffer
	enc := wire.NewEncoder(&sink)
	if err := enc.EncodeAckedBatch(ms); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeAckedBatch(ms); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*reports), "ns/report")
}

// ---------------------------------------------------------------------------
// Ingestion-service benchmarks: the single-message, single-shard path
// versus sharded batched ingestion (the rtf-serve data path), at the
// same total report count. The single path decodes one frame per report
// and funnels everything through the mutex Collector into one serial
// server; the batched path decodes batch frames on one goroutine per
// stream and fans them into the lock-free sharded accumulator.

const (
	ingestBenchReports = 1 << 16
	ingestBenchD       = 1024
	ingestBenchBatch   = 256
)

// encodeIngestStreams pre-encodes the benchmark's report set as
// `streams` independent wire streams, batched or single-message framed.
func encodeIngestStreams(b *testing.B, streams int, batched bool) [][]byte {
	b.Helper()
	g := rng.New(21, 22)
	out := make([][]byte, streams)
	per := ingestBenchReports / streams
	for s := 0; s < streams; s++ {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		batch := make([]wire.Msg, 0, ingestBenchBatch)
		for i := 0; i < per; i++ {
			h := g.IntN(dyadic.NumOrders(ingestBenchD))
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			m := wire.FromReport(protocol.Report{
				User: s*per + i, Order: h, J: 1 + g.IntN(ingestBenchD>>uint(h)), Bit: bit,
			})
			if !batched {
				if err := enc.Encode(m); err != nil {
					b.Fatal(err)
				}
				continue
			}
			batch = append(batch, m)
			if len(batch) == ingestBenchBatch {
				if err := enc.EncodeBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := enc.EncodeBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		out[s] = buf.Bytes()
	}
	return out
}

// BenchmarkIngestSingleMessage is the baseline: one stream of
// per-message frames, decoded serially and ingested one message at a
// time into a serial Server.
func BenchmarkIngestSingleMessage(b *testing.B) {
	streams := encodeIngestStreams(b, 1, false)
	b.SetBytes(int64(len(streams[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := protocol.NewServer(ingestBenchD, 100)
		dec := wire.NewDecoder(bytes.NewReader(streams[0]))
		for {
			m, err := dec.Next()
			if err != nil {
				break
			}
			srv.Ingest(m.Report())
		}
	}
	b.ReportMetric(float64(ingestBenchReports)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// servedIngest is what rtf-serve's frame loop does with a connection's
// ingest frames, minus the socket: decode a frame into validated records
// under the mode's contract and hand the store's trusted entry the
// records together with the bytes they arrived as.
func servedIngest(st transport.Store, shard int, stream []byte) error {
	dec := wire.NewDecoder(bytes.NewReader(stream))
	ingest := st.Mode().Ingest()
	for {
		f, err := dec.NextFrame(&ingest)
		if err != nil {
			return nil // end of stream
		}
		if err := st.Apply(shard, f.Recs, f.Wire); err != nil {
			return err
		}
	}
}

// msgViewIngest is the Msg view of ingest as the benchmark ladder's rungs
// reach it: decode a frame into Msgs, then SendBatch, which checks each
// Msg against the contract, converts the run to records and — on a
// durable store — encodes it again for the journal. No front serves this
// combination, and no Store declares SendBatch: the stores the ladder
// times carry it in internal/transport/benchcompat.go, so st must be one
// of those.
func msgViewIngest(st transport.Store, shard int, stream []byte) error {
	msgView := st.(interface {
		SendBatch(shard int, ms []wire.Msg) error
	})
	dec := wire.NewDecoder(bytes.NewReader(stream))
	for {
		ms, err := dec.NextBatch()
		if err != nil {
			return nil // end of stream
		}
		if err := msgView.SendBatch(shard, ms); err != nil {
			return err
		}
	}
}

// BenchmarkIngestBatchedSharded is batched Boolean ingest in process, as
// the frame loop does it minus the socket (servedIngest; the real thing
// over loopback is BenchmarkIngestServed): per-stream goroutines decode
// batch frames into records and apply each frame's run to their own
// shard of the sharded accumulator under its write lock. With
// GOMAXPROCS ≥ shards the streams decode in parallel; even
// single-threaded, batching amortizes the per-message decode and
// dispatch overhead.
func BenchmarkIngestBatchedSharded(b *testing.B) {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	if counts[2] == counts[1] || counts[2] == counts[0] {
		counts = counts[:2]
	}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			streams := encodeIngestStreams(b, shards, true)
			var total int64
			for _, s := range streams {
				total += int64(len(s))
			}
			b.SetBytes(total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col := transport.NewShardedCollector(protocol.NewSharded(ingestBenchD, 100, shards))
				var wg sync.WaitGroup
				for s := range streams {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						if err := servedIngest(col, s, streams[s]); err != nil {
							b.Error(err)
						}
					}(s)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(ingestBenchReports)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// benchDurableIngest runs the batched sharded ingest workload of
// BenchmarkIngestBatchedSharded through a durable store opened with the
// given persistence options: four concurrent streams, every batch
// journaled before it is applied, through the given entry (servedIngest
// or msgViewIngest).
func benchDurableIngest(b *testing.B, o transport.DurableOptions, ingest func(transport.Store, int, []byte) error) {
	const shards = 4
	streams := encodeIngestStreams(b, shards, true)
	var total int64
	for _, s := range streams {
		total += int64(len(s))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		col, _, err := transport.OpenDurable(protocol.NewSharded(ingestBenchD, 100, shards), dir,
			persist.Meta{Mechanism: "bench", D: ingestBenchD, K: 8, Eps: 1, Scale: 100}, o)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for s := range streams {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if err := ingest(col, s, streams[s]); err != nil {
					b.Error(err)
				}
			}(s)
		}
		wg.Wait()
		col.Close()
	}
	b.ReportMetric(float64(ingestBenchReports)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkIngestDurableWAL measures the write-ahead-logging overhead
// in process: four streams of batch frames, every batch journaled
// through a durable store (no fsync — the kill -9 durability level)
// before it is applied. served decodes to records and journals each
// frame's received bytes, as rtf-serve does; reencode is the Msg view,
// SendBatch, which has no wire bytes and encodes the run again.
func BenchmarkIngestDurableWAL(b *testing.B) {
	b.Run("served", func(b *testing.B) { benchDurableIngest(b, transport.DurableOptions{}, servedIngest) })
	b.Run("reencode", func(b *testing.B) { benchDurableIngest(b, transport.DurableOptions{}, msgViewIngest) })
}

// BenchmarkIngestGroupCommit measures WAL group commit on the durable
// data path: the four concurrent streams journal through one log, and
// batches that reach it while a write is in flight share the next write
// (and, with fsync, the next sync). Grouping is how WAL.Append always
// works, so there is no option to turn on: fsync-direct and fsync-group
// both run {Fsync: true} and measure the same path, and kill9-group runs
// {} (the kill -9 durability level). The three names are kept so that
// the regression gate compares this path with each of the two append
// paths that preceded it.
func BenchmarkIngestGroupCommit(b *testing.B) {
	b.Run("fsync-direct", func(b *testing.B) {
		benchDurableIngest(b, transport.DurableOptions{Fsync: true}, servedIngest)
	})
	b.Run("fsync-group", func(b *testing.B) {
		benchDurableIngest(b, transport.DurableOptions{Fsync: true}, servedIngest)
	})
	b.Run("kill9-group", func(b *testing.B) {
		benchDurableIngest(b, transport.DurableOptions{}, servedIngest)
	})
}

// servedBenchFrame is the shape of the domain-rw write burst: 2,048
// reports per acked frame, eight frames in flight.
const (
	servedBenchFrame  = 2048
	servedBenchWindow = 8
	servedBenchFrames = 16 // distinct frames cycled through
)

// servedBenchCase is one mode of the served-ingest benchmarks: the mode
// and the report messages its clients send.
type servedBenchCase struct {
	name   string
	mode   transport.Mode
	report func(item int, r protocol.Report) wire.Msg
	rows   int
}

func servedBenchCases() []servedBenchCase {
	boolReport := func(_ int, r protocol.Report) wire.Msg { return wire.FromReport(r) }
	return []servedBenchCase{
		{"boolean", transport.BoolMode(ingestBenchD, 100), boolReport, 1},
		{"domain", transport.DomainMode(ingestBenchD, hh.ExactEncoding(domainBenchM), 100), wire.FromDomainReport, domainBenchM},
		{"hashed", transport.DomainMode(ingestBenchD, hashedBenchEnc, 100), wire.FromDomainReport, hashedBenchEnc.G},
	}
}

// frames pre-encodes servedBenchFrames acked frames of servedBenchFrame
// reports each, user ids spread over two- and three-byte varints the way
// a real population's are.
func (c servedBenchCase) frames(b *testing.B) [][]byte {
	b.Helper()
	g := rng.New(61, 62)
	out := make([][]byte, servedBenchFrames)
	batch := make([]wire.Msg, servedBenchFrame)
	for f := range out {
		for i := range batch {
			h := g.IntN(dyadic.NumOrders(ingestBenchD))
			batch[i] = c.report(g.IntN(c.rows), protocol.Report{
				User: g.IntN(200_000), Order: h, J: 1 + g.IntN(ingestBenchD>>uint(h)), Bit: int8(1 - 2*g.IntN(2)),
			})
		}
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.EncodeAckedBatch(batch); err != nil {
			b.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		out[f] = buf.Bytes()
	}
	return out
}

// servedListen serves store on a loopback port for the length of a
// benchmark and returns its address.
func servedListen(b *testing.B, store transport.Store) string {
	srv := transport.NewIngestServer(store)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	b.Cleanup(func() {
		srv.Close()
		<-done
	})
	return (<-ready).String()
}

// servedConn is one client connection of the served-ingest benchmarks:
// it writes pre-encoded acked frames with servedBenchWindow in flight and
// reads the acks.
type servedConn struct {
	b        *testing.B
	conn     net.Conn
	acks     *bufio.Reader
	frames   [][]byte
	inflight int
	ack      [2]byte
}

// dialServed connects to addr and grows the connection's buffers on
// both sides before any timing starts.
func dialServed(b *testing.B, addr string, frames [][]byte) *servedConn {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	c := &servedConn{b: b, conn: conn, acks: bufio.NewReader(conn), frames: frames}
	for i := 0; i < 4*servedBenchWindow; i++ {
		c.send(i)
	}
	c.drain()
	return c
}

func (c *servedConn) readAck() {
	if _, err := io.ReadFull(c.acks, c.ack[:]); err != nil || c.ack != [2]byte{byte(wire.MsgBatchAck), 1} {
		c.b.Errorf("ack %v, %v", c.ack, err)
		runtime.Goexit()
	}
	c.inflight--
}

// send writes frame i (mod the distinct frames), first waiting for an
// ack if the window is full.
func (c *servedConn) send(i int) {
	if c.inflight == servedBenchWindow {
		c.readAck()
	}
	if _, err := c.conn.Write(c.frames[i%len(c.frames)]); err != nil {
		c.b.Error(err)
		runtime.Goexit()
	}
	c.inflight++
}

// drain reads every outstanding ack.
func (c *servedConn) drain() {
	for c.inflight > 0 {
		c.readAck()
	}
}

// BenchmarkIngestServed is the path that ships: a real IngestServer on
// loopback, one connection writing pre-encoded 2,048-report acked frames
// with eight in flight and reading the acks — socket read, fused decode
// and validation into records, (journal,) apply under the connection's
// shard lock, coalesced ack. One op is one frame; steady state allocates
// nothing on either side. The durable cell journals every frame (no
// fsync) and cuts a snapshot outside the timer every 512 frames so the
// log stays a few segments long.
func BenchmarkIngestServed(b *testing.B) {
	cases := servedBenchCases()
	durable := cases[0]
	durable.name = "durable"
	for i, c := range append(cases, durable) {
		b.Run(c.name, func(b *testing.B) {
			var store transport.Store = transport.NewCollector(c.mode, 2)
			snapshot := func() {}
			if i == len(cases) {
				dur, _, err := transport.OpenDurableStore(store, b.TempDir(),
					persist.Meta{Mechanism: "bench", D: ingestBenchD, K: 8, Eps: 1, Scale: 100}, transport.DurableOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { dur.Close() }) // after the server, which cleans up first
				store = dur
				snapshot = func() {
					if _, err := dur.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
			}
			conn := dialServed(b, servedListen(b, store), c.frames(b))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%512 == 511 {
					conn.drain()
					b.StopTimer()
					snapshot()
					b.StartTimer()
				}
				conn.send(i)
			}
			conn.drain()
			b.ReportMetric(servedBenchFrame*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// BenchmarkIngestServedConns is BenchmarkIngestServed under contention:
// C connections into one 2-shard IngestServer, each writing its share of
// the b.N frames with eight in flight. A connection writes the counter
// shard of its slot (the lowest slot no other live connection holds)
// modulo the shard count, so at C = 4 slots 0–3 land on shards 0, 1, 0,
// 1 and every shard has two writers taking turns at its lock, one run
// per frame — the number behind "ingestion scales with shards" (on a
// 2-vCPU host, C = 1 leaves a core to the client).
func BenchmarkIngestServedConns(b *testing.B) {
	for _, c := range servedBenchCases()[:2] {
		for _, conns := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/conns=%d", c.name, conns), func(b *testing.B) {
				addr := servedListen(b, transport.NewCollector(c.mode, 2))
				frames := c.frames(b)
				clients := make([]*servedConn, conns)
				for k := range clients {
					clients[k] = dialServed(b, addr, frames)
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for k, conn := range clients {
					wg.Add(1)
					go func(k int, conn *servedConn) {
						defer wg.Done()
						for i := k; i < b.N; i += conns {
							conn.send(i)
						}
						conn.drain()
					}(k, conn)
				}
				wg.Wait()
				b.ReportMetric(servedBenchFrame*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
			})
		}
	}
}

// BenchmarkIngestServedMember is BenchmarkIngestServed's boolean cell
// into a membership-mode backend: a ShardMap of memberBenchShards virtual
// shards, which routes every record by its user. The frames' users are
// drawn at random, so consecutive records almost never share a virtual
// shard: a frame cannot reach the shards in long stretches, only as the
// per-shard buckets ShardMap.Apply sorts it into.
func BenchmarkIngestServedMember(b *testing.B) {
	c := servedBenchCases()[0]
	conn := dialServed(b, servedListen(b, transport.NewShardMap(c.mode, memberBenchShards, "n0")), c.frames(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.send(i)
	}
	conn.drain()
	b.ReportMetric(servedBenchFrame*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkIngestKernel is the decode half alone: the same frames, in
// memory, through Decoder.NextFrame into validated 24-byte records —
// no socket, no apply.
func BenchmarkIngestKernel(b *testing.B) {
	for _, c := range servedBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			stream := bytes.Join(c.frames(b), nil)
			src := bytes.NewReader(nil)
			dec := wire.NewDecoder(src)
			ingest := c.mode.Ingest()
			b.SetBytes(int64(len(stream)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(stream)
				for f := 0; f < servedBenchFrames; f++ {
					if fr, err := dec.NextFrame(&ingest); err != nil || len(fr.Recs) != servedBenchFrame {
						b.Fatalf("frame %d: %v", f, err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*servedBenchFrames*servedBenchFrame), "ns/report")
		})
	}
}

// walReplayFrames is the length of BenchmarkIngestWALReplay's log in
// 2,048-report frames.
const walReplayFrames = 64

// BenchmarkIngestWALReplay is recovery: OpenDurable over a snapshot-free
// log of walReplayFrames journaled frames of BenchmarkIngestServed's
// boolean cell, every record decoded through the ingest kernel and
// applied, as a restarted durable rtf-serve does before it listens. One
// op is one recovery into a fresh accumulator; what it allocates does
// not grow with the log (TestWALReplayAllocsPerFrame).
func BenchmarkIngestWALReplay(b *testing.B) {
	c := servedBenchCases()[0]
	meta := persist.Meta{Mechanism: "bench", D: ingestBenchD, K: 8, Eps: 1, Scale: 100}
	dir := b.TempDir()
	dur, _, err := transport.OpenDurable(protocol.NewSharded(ingestBenchD, 100, 2), dir, meta, transport.DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	stream := bytes.Join(c.frames(b), nil)
	for f := 0; f < walReplayFrames; f += servedBenchFrames {
		if err := servedIngest(dur, 0, stream); err != nil {
			b.Fatal(err)
		}
	}
	if err := dur.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dur, stats, err := transport.OpenDurable(protocol.NewSharded(ingestBenchD, 100, 2), dir, meta, transport.DurableOptions{})
		if err != nil || stats.Replayed != walReplayFrames {
			b.Fatalf("replayed %d records, want %d: %v", stats.Replayed, walReplayFrames, err)
		}
		dur.Close()
	}
	b.ReportMetric(float64(walReplayFrames*servedBenchFrame)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkAnswerChangeVsDiffPoints compares the two ways to estimate a
// range change through the unified query API: one Answer(Change) over
// the direct dyadic cover versus differencing two Answer(Point) prefix
// estimates. The cover touches fewer intervals (and, per experiment
// E21, carries less noise on short ranges).
func BenchmarkAnswerChangeVsDiffPoints(b *testing.B) {
	const d = 4096
	srv, err := ldp.NewServer(d, ldp.WithSparsity(8), ldp.WithEpsilon(1))
	if err != nil {
		b.Fatal(err)
	}
	g := rng.New(23, 24)
	for i := 0; i < 1<<16; i++ {
		h := g.IntN(dyadic.NumOrders(d))
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		if err := srv.Ingest(ldp.Report{User: i, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit}); err != nil {
			b.Fatal(err)
		}
	}
	const l, r = 1500, 1563 // width 64, unaligned
	b.Run("change", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := srv.Answer(ldp.ChangeQuery(l, r)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("diff-points", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hi, err := srv.Answer(ldp.PointQuery(r))
			if err != nil {
				b.Fatal(err)
			}
			lo, err := srv.Answer(ldp.PointQuery(l - 1))
			if err != nil {
				b.Fatal(err)
			}
			_ = hi.Value - lo.Value
		}
	})
}

// ---------------------------------------------------------------------------
// Cluster benchmarks: the scatter/gather gateway over in-process
// rtf-serve backends, so the scaling claim of the multi-node deployment
// is measured, not asserted. Ingest measures partition-and-forward
// throughput end to end over loopback TCP; the Answer benchmarks
// measure the full scatter/gather round trip (fetch every backend's raw
// sums, fold, estimate), which is the cluster's per-query price.

// clusterBench is a gateway over n in-process backends on loopback.
type clusterBench struct {
	gw       *cluster.Gateway
	addr     string
	backends []*transport.IngestServer
	done     []chan error
}

func startClusterBench(b *testing.B, n, d int, scale float64, configure ...func(*cluster.Gateway)) *clusterBench {
	b.Helper()
	cb := &clusterBench{}
	var addrs []string
	for i := 0; i < n; i++ {
		srv := transport.NewIngestServer(transport.NewShardedCollector(protocol.NewSharded(d, scale, 2)))
		ready := make(chan net.Addr, 1)
		done := make(chan error, 1)
		go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
		addrs = append(addrs, (<-ready).String())
		cb.backends = append(cb.backends, srv)
		cb.done = append(cb.done, done)
	}
	gw, err := cluster.New(transport.BoolMode(d, scale), cluster.Static(addrs), transport.ClusterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cb.gw = gw
	for _, f := range configure {
		f(cb.gw) // before ListenAndServe: the serve loop reads these fields
	}
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- cb.gw.ListenAndServe("127.0.0.1:0", ready) }()
	cb.addr = (<-ready).String()
	cb.done = append(cb.done, done)
	b.Cleanup(func() {
		cb.gw.Close()
		for _, srv := range cb.backends {
			srv.Close()
		}
		for _, done := range cb.done {
			if err := <-done; err != nil {
				b.Error(err)
			}
		}
	})
	return cb
}

// BenchmarkClusterIngest measures batched ingestion through the gateway
// over three backends: decode, whole-batch validation, user mod N
// partitioning, re-batching and forwarding, fenced at the end so every
// report is applied before the clock stops.
func BenchmarkClusterIngest(b *testing.B) {
	const conns = 4
	cb := startClusterBench(b, 3, ingestBenchD, 100)
	streams := encodeIngestStreams(b, conns, true)
	var total int64
	for _, s := range streams {
		total += int64(len(s))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for s := range streams {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				conn, err := net.Dial("tcp", cb.addr)
				if err != nil {
					b.Error(err)
					return
				}
				defer conn.Close()
				if _, err := conn.Write(streams[s]); err != nil {
					b.Error(err)
					return
				}
				enc := wire.NewEncoder(conn)
				if err := enc.Encode(wire.QueryV2(wire.QueryPoint, 1, 0)); err != nil { // fence
					b.Error(err)
					return
				}
				if err := enc.Flush(); err != nil {
					b.Error(err)
					return
				}
				if _, err := wire.NewDecoder(conn).ReadAnswer(); err != nil {
					b.Error(err)
				}
			}(s)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(ingestBenchReports)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// benchClusterAnswer measures one query shape's round trip through the
// gateway on an idle cluster.
func benchClusterAnswer(b *testing.B, q wire.Msg) {
	cb := startClusterBench(b, 3, ingestBenchD, 100)
	streams := encodeIngestStreams(b, 1, true)
	conn, err := net.Dial("tcp", cb.addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(streams[0]); err != nil {
		b.Fatal(err)
	}
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(q); err != nil {
			b.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := dec.ReadAnswer(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterAnswerPoint is the cheapest query, repeated on an
// unchanged ingest epoch: the first iteration gathers the point's
// columns from every backend, every later one is a cache hit
// (BenchmarkQuorumAnswerPoint/warm is its twin over replicas).
func BenchmarkClusterAnswerPoint(b *testing.B) {
	benchClusterAnswer(b, wire.QueryV2(wire.QueryPoint, ingestBenchD/2, ingestBenchD/2))
}

// BenchmarkClusterAnswerSeries amortizes the same gather over the full
// d-period series.
func BenchmarkClusterAnswerSeries(b *testing.B) {
	benchClusterAnswer(b, wire.QueryV2(wire.QuerySeries, 0, 0))
}

// ---------------------------------------------------------------------------
// Dynamic-membership benchmarks: K-way replicated ingest and the quorum
// answer path through a member gateway, both registered with the CI
// regression gate.

const memberBenchShards = 32

type memberBench struct {
	addr     string
	gw       *cluster.Gateway
	backends []*transport.IngestServer
	done     []chan error
}

// startMemberBench spins up n membership-mode backends and a member
// gateway replicating every shard to k of them.
func startMemberBench(b *testing.B, n, k, d int, scale float64) *memberBench {
	b.Helper()
	mb := &memberBench{}
	var members []membership.Member
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("b%d", i)
		srv := transport.NewIngestServer(transport.NewShardMap(transport.BoolMode(d, scale), memberBenchShards, id))
		ready := make(chan net.Addr, 1)
		done := make(chan error, 1)
		go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
		members = append(members, membership.Member{ID: id, Addr: (<-ready).String()})
		mb.backends = append(mb.backends, srv)
		mb.done = append(mb.done, done)
	}
	gw, err := cluster.New(transport.BoolMode(d, scale), cluster.Members(memberBenchShards, k, members), transport.ClusterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := gw.AnnounceView(); err != nil {
		b.Fatal(err)
	}
	mb.gw = gw
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- gw.ListenAndServe("127.0.0.1:0", ready) }()
	mb.addr = (<-ready).String()
	mb.done = append(mb.done, done)
	b.Cleanup(func() {
		mb.gw.Close()
		for _, srv := range mb.backends {
			srv.Close()
		}
		for _, done := range mb.done {
			if err := <-done; err != nil {
				b.Error(err)
			}
		}
	})
	return mb
}

// BenchmarkReplicatedIngest measures batched ingestion through a member
// gateway over three backends with K=2: decode, whole-batch validation,
// rendezvous shard partitioning, and each message shipped to BOTH
// owners of its shard, fenced at the end so every replica applied every
// report before the clock stops.
func BenchmarkReplicatedIngest(b *testing.B) {
	const conns = 4
	mb := startMemberBench(b, 3, 2, ingestBenchD, 100)
	streams := encodeIngestStreams(b, conns, true)
	var total int64
	for _, s := range streams {
		total += int64(len(s))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for s := range streams {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				conn, err := net.Dial("tcp", mb.addr)
				if err != nil {
					b.Error(err)
					return
				}
				defer conn.Close()
				if _, err := conn.Write(streams[s]); err != nil {
					b.Error(err)
					return
				}
				enc := wire.NewEncoder(conn)
				if err := enc.Encode(wire.QueryV2(wire.QueryPoint, 1, 0)); err != nil { // fence
					b.Error(err)
					return
				}
				if err := enc.Flush(); err != nil {
					b.Error(err)
					return
				}
				if _, err := wire.NewDecoder(conn).ReadAnswer(); err != nil {
					b.Error(err)
				}
			}(s)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(ingestBenchReports)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkQuorumAnswerPoint is the cheapest query over the replicated
// transport. /cold forwards one hello between reads, so every iteration
// is the fenced quorum gather: fence the forward on both owners,
// quorum-read every shard from both, compare the copies integer for
// integer, and fold one copy per shard into a fresh serial accumulator.
// /warm repeats the read on an unchanged ingest epoch: a cache hit, no
// lock, no backend.
func BenchmarkQuorumAnswerPoint(b *testing.B) {
	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			mb := startMemberBench(b, 3, 2, ingestBenchD, 100)
			streams := encodeIngestStreams(b, 1, true)
			conn, err := net.Dial("tcp", mb.addr)
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(streams[0]); err != nil {
				b.Fatal(err)
			}
			enc := wire.NewEncoder(conn)
			dec := wire.NewDecoder(conn)
			q := wire.QueryV2(wire.QueryPoint, ingestBenchD/2, ingestBenchD/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					if err := enc.Encode(wire.Hello(1<<20+i, 0)); err != nil {
						b.Fatal(err)
					}
				}
				if err := enc.Encode(q); err != nil {
					b.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					b.Fatal(err)
				}
				if _, err := dec.ReadAnswer(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type writableBuffer struct{ n int }

func (w *writableBuffer) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *writableBuffer) reset()                      { w.n = 0 }

// BenchmarkWorkloadGen measures synthetic dataset generation.
func BenchmarkWorkloadGen(b *testing.B) {
	g := rng.New(13, 14)
	gen := workload.UniformGen{N: 100000, D: 1024, K: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(g.Split()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDyadicDecompose measures the C(t) computation (server line 6).
func BenchmarkDyadicDecompose(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dyadic.Decompose(1023, 1024)
	}
}

// BenchmarkBinomialHalf measures the exact popcount aggregate used for
// zero-coordinate coins in the fast engine.
func BenchmarkBinomialHalf(b *testing.B) {
	g := rng.New(15, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BinomialHalf(100000)
	}
}

// ---------------------------------------------------------------------------
// Domain-valued tracking benchmarks: the item-tagged ingest path and the
// top-k heavy-hitter query, both registered with the CI regression gate.

const domainBenchM = 16

// encodeDomainStreams pre-encodes item-tagged batch streams spanning
// ingestBenchReports domain reports split over the given stream count.
func encodeDomainStreams(b *testing.B, streams int) [][]byte {
	b.Helper()
	out := make([][]byte, streams)
	per := ingestBenchReports / streams
	for s := 0; s < streams; s++ {
		g := rng.New(uint64(s)+31, 8)
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		batch := make([]wire.Msg, 0, ingestBenchBatch)
		for i := 0; i < per; i++ {
			item := g.IntN(domainBenchM)
			h := g.IntN(dyadic.NumOrders(ingestBenchD))
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			batch = append(batch, wire.FromDomainReport(item, protocol.Report{
				User: s*per + i, Order: h, J: 1 + g.IntN(ingestBenchD>>uint(h)), Bit: bit,
			}))
			if len(batch) == ingestBenchBatch {
				if err := enc.EncodeBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := enc.EncodeBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		out[s] = buf.Bytes()
	}
	return out
}

// BenchmarkDomainIngest is the Msg view of exact-domain ingest (what
// rtf-serve -m runs is BenchmarkIngestServed/domain): per-stream
// goroutines decode item-tagged batch frames into Msgs and fan them into
// the per-item sharded accumulators through SendBatch.
func BenchmarkDomainIngest(b *testing.B) {
	const shards = 4
	streams := encodeDomainStreams(b, shards)
	var total int64
	for _, s := range streams {
		total += int64(len(s))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := transport.NewDomainCollector(hh.NewDomainServer(ingestBenchD, domainBenchM, 100, shards))
		var wg sync.WaitGroup
		for s := range streams {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				dec := wire.NewDecoder(bytes.NewReader(streams[s]))
				for {
					ms, err := dec.NextBatch()
					if err != nil {
						return
					}
					if err := col.SendBatch(s, ms); err != nil {
						b.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(ingestBenchReports)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkDomainIngestFlat isolates the accumulator half of the domain
// data path as served reports reach it: runs of servedBenchFrame reports,
// each written under one shard write lock (DomainSharded.Lock) with a
// plain add per report — no wire decode, no collector. Against
// BenchmarkDomainIngest (which includes decode and validation) it
// separates "how fast is the flat matrix" from "how fast is the
// transport in front of it". It used to time the per-report Ingest,
// which no served report takes any more: that entry now locks per call
// and runs well under half this rate.
func BenchmarkDomainIngestFlat(b *testing.B) {
	const shards = 4
	type tagged struct {
		item int
		r    protocol.Report
	}
	g := rng.New(53, 8)
	reports := make([]tagged, ingestBenchReports)
	for i := range reports {
		h := g.IntN(dyadic.NumOrders(ingestBenchD))
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		reports[i] = tagged{item: g.IntN(domainBenchM), r: protocol.Report{
			User: i, Order: h, J: 1 + g.IntN(ingestBenchD>>uint(h)), Bit: bit,
		}}
	}
	acc := protocol.NewDomainSharded(ingestBenchD, domainBenchM, 100, shards)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(reports); lo += servedBenchFrame {
			w := acc.Lock(lo / servedBenchFrame & (shards - 1))
			for _, t := range reports[lo:min(lo+servedBenchFrame, len(reports))] {
				w.Ingest(t.item, t.r)
			}
			w.Unlock()
		}
	}
	b.ReportMetric(float64(ingestBenchReports)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkAnswerTopK measures the top-k heavy-hitter query on a
// populated domain server: m per-item point estimates (each a dyadic
// decomposition over the live counters) plus the sort.
func BenchmarkAnswerTopK(b *testing.B) {
	ds := hh.NewDomainServer(ingestBenchD, domainBenchM, 100, 2)
	col := transport.NewDomainCollector(ds)
	for _, stream := range encodeDomainStreams(b, 2) {
		dec := wire.NewDecoder(bytes.NewReader(stream))
		for {
			ms, err := dec.NextBatch()
			if err != nil {
				break
			}
			if err := col.SendBatch(0, ms); err != nil {
				b.Fatal(err)
			}
		}
	}
	q := wire.DomainQuery(wire.QueryTopK, 0, ingestBenchD/2, 0, 10)
	mode := col.Mode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A served read: the frame loop's read check, then the answer
		// into a fresh frame.
		if err := mode.ValidateRead(q); err != nil {
			b.Fatal(err)
		}
		var ans wire.DomainAnswerFrame
		var sc transport.TopKScratch
		if _, err := transport.AnswerDomainQueryInto(ds, q, &ans, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// hashedBenchEnc is the hashed-domain benchmark encoding: a million-item
// catalogue folded to 256 bucket rows — the regime the loloha encoding
// exists for, far past the exact encoding's 4096-row cap.
var hashedBenchEnc = hh.LolohaEncoding(1_000_000, 256, 0xbeef)

// encodeHashedDomainStreams pre-encodes bucket-tagged batch streams
// spanning ingestBenchReports hashed domain reports split over the
// given stream count. The hot path reuses MsgDomainReport with
// Item = bucket, so the wire work is identical to the exact encoding's
// — only the row space differs.
func encodeHashedDomainStreams(b *testing.B, streams int) [][]byte {
	b.Helper()
	out := make([][]byte, streams)
	per := ingestBenchReports / streams
	for s := 0; s < streams; s++ {
		g := rng.New(uint64(s)+37, 8)
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		batch := make([]wire.Msg, 0, ingestBenchBatch)
		for i := 0; i < per; i++ {
			bucket := g.IntN(hashedBenchEnc.G)
			h := g.IntN(dyadic.NumOrders(ingestBenchD))
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			batch = append(batch, wire.FromDomainReport(bucket, protocol.Report{
				User: s*per + i, Order: h, J: 1 + g.IntN(ingestBenchD>>uint(h)), Bit: bit,
			}))
			if len(batch) == ingestBenchBatch {
				if err := enc.EncodeBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := enc.EncodeBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		out[s] = buf.Bytes()
	}
	return out
}

// BenchmarkHashedDomainIngest is the Msg view of hashed-domain ingest
// (what rtf-serve -encoding loloha runs is BenchmarkIngestServed/hashed):
// per-stream goroutines decode bucket-tagged batch frames into Msgs and
// fan them into the g-row hashed server through SendBatch.
func BenchmarkHashedDomainIngest(b *testing.B) {
	const shards = 4
	streams := encodeHashedDomainStreams(b, shards)
	var total int64
	for _, s := range streams {
		total += int64(len(s))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := transport.NewHashedDomainCollector(hh.NewHashedDomainServer(ingestBenchD, hashedBenchEnc, 100, shards))
		var wg sync.WaitGroup
		for s := range streams {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				dec := wire.NewDecoder(bytes.NewReader(streams[s]))
				for {
					ms, err := dec.NextBatch()
					if err != nil {
						return
					}
					if err := col.SendBatch(s, ms); err != nil {
						b.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(ingestBenchReports)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// populateHashedBench builds the hashed server behind the two top-k
// benchmarks below, fed ingestBenchReports bucket-tagged reports.
func populateHashedBench(b *testing.B) *hh.HashedDomainServer {
	b.Helper()
	hs := hh.NewHashedDomainServer(ingestBenchD, hashedBenchEnc, 100, 2)
	col := transport.NewHashedDomainCollector(hs)
	for _, stream := range encodeHashedDomainStreams(b, 2) {
		dec := wire.NewDecoder(bytes.NewReader(stream))
		for {
			ms, err := dec.NextBatch()
			if err != nil {
				break
			}
			if err := col.SendBatch(0, ms); err != nil {
				b.Fatal(err)
			}
		}
	}
	return hs
}

// BenchmarkAnswerTopKHashedCold is the uncached top-k query on a
// populated hashed server over a million-item catalogue: every
// iteration advances the version stamp, so g per-bucket point
// estimates, the unbiased decode and the item sweep all run. The sweep
// stops at the k-th item of the best bucket (about g·k items in), so
// the catalogue size is not in the cost.
func BenchmarkAnswerTopKHashedCold(b *testing.B) {
	hs := populateHashedBench(b)
	q := wire.DomainQuery(wire.QueryTopK, 0, ingestBenchD/2, 0, 10)
	mode := transport.DomainMode(ingestBenchD, hashedBenchEnc, 100)
	var ans wire.DomainAnswerFrame
	var sc transport.TopKScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.AdvanceVersion(0)
		if err := mode.ValidateRead(q); err != nil {
			b.Fatal(err)
		}
		if _, err := transport.AnswerDomainQueryInto(hs, q, &ans, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerTopKHashedWarm is the same query against an unchanged
// version stamp: a copy out of the memo.
func BenchmarkAnswerTopKHashedWarm(b *testing.B) {
	hs := populateHashedBench(b)
	q := wire.DomainQuery(wire.QueryTopK, 0, ingestBenchD/2, 0, 10)
	mode := transport.DomainMode(ingestBenchD, hashedBenchEnc, 100)
	var ans wire.DomainAnswerFrame
	var sc transport.TopKScratch
	if _, err := transport.AnswerDomainQueryInto(hs, q, &ans, &sc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mode.ValidateRead(q); err != nil {
			b.Fatal(err)
		}
		if _, err := transport.AnswerDomainQueryInto(hs, q, &ans, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayGatherHashed is the CPU of one cold read through a
// hashed gateway over two backends, without the sockets: each backend
// exports and encodes its raw sums, the gateway decodes both frames
// (through a read buffer of a backend connection's size), merges them,
// folds the total into the state it answers from and runs a cold top-10
// over the catalogue — at the gateway-hashed workload's sizes (g = 256,
// m = 2^18) and at two horizons. Every period's first read behind
// rtf-gateway pays this once. /scoped is what that read costs: the
// gather asks for the columns the top-k evaluates; /full is a gather of
// every column, what a Series read (and every read before scopes) costs.
// The first stops growing with d, the second is linear in it.
func BenchmarkGatewayGatherHashed(b *testing.B) {
	const g, m = 256, 1 << 18
	for _, d := range []int{128, 1024} {
		mode := transport.DomainMode(d, hh.LolohaEncoding(m, g, 0xbeef), 100)
		backends := [2]transport.State{mode.NewState(2), mode.NewState(2)}
		r := rng.New(17, 18)
		for i := 0; i < ingestBenchReports; i++ {
			h := r.IntN(dyadic.NumOrders(d))
			run := []wire.Rec{{User: i, Item: uint32(r.IntN(g)), Order: uint8(h), J: uint32(1 + r.IntN(d>>uint(h))), Bit: int8(1 - 2*r.IntN(2))}}
			if i%8 == 0 {
				run = append(run, wire.Rec{User: i, Item: uint32(r.IntN(g)), Order: uint8(h)})
			}
			backends[i%2].Apply(i%2, run)
		}
		q := wire.DomainQuery(wire.QueryTopK, 0, d/2-1, 0, 10)
		for _, scoped := range []bool{false, true} {
			req, name := mode.SumsRequest(), "full"
			if scoped {
				sc := mode.Scope(q)
				req.L, req.R, name = sc.L, sc.R, "scoped"
			}
			b.Run(fmt.Sprintf("d=%d/%s", d, name), func(b *testing.B) {
				var raw bytes.Buffer
				enc := wire.NewEncoder(&raw)
				src := bytes.NewReader(nil)
				dec := wire.NewDecoder(bufio.NewReaderSize(src, 64<<10))
				out := wire.NewEncoder(io.Discard)
				var sc transport.AnswerScratch
				frames := make([]wire.RawSums, len(backends))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					raw.Reset()
					for _, st := range backends {
						if _, _, err := st.Answer(req, enc, &sc); err != nil {
							b.Fatal(err)
						}
					}
					if err := enc.Flush(); err != nil {
						b.Fatal(err)
					}
					src.Reset(raw.Bytes())
					for j := range frames {
						var err error
						if frames[j], err = mode.ReadSums(dec); err != nil {
							b.Fatal(err)
						}
					}
					gathered, err := transport.NewGathered(mode, frames)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := gathered.Answer(q, out, &sc); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(raw.Len())/float64(len(backends)), "frame-bytes")
			})
		}
	}
}

// BenchmarkShardMapPointRead is one point-item read at a shard-mapped
// exact-domain store (16 virtual shards, m = 256, d = 256), answered from
// its live accumulator like a Collector's. /scoped is the PointItem read,
// which sums the counters of its period's cover across the shards, and
// /full a SeriesItem read of the same item, which folds the item's whole
// row.
func BenchmarkShardMapPointRead(b *testing.B) {
	const d, m, shards = 256, 256, 16
	sm := transport.NewShardMap(transport.DomainMode(d, hh.ExactEncoding(m), 100), shards, "n0")
	r := rng.New(23, 24)
	run := make([]wire.Rec, 0, 4096)
	for i := 0; i < ingestBenchReports; i++ {
		h := r.IntN(dyadic.NumOrders(d))
		run = append(run, wire.Rec{User: i, Item: uint32(r.IntN(m)), Order: uint8(h), J: uint32(1 + r.IntN(d>>uint(h))), Bit: int8(1 - 2*r.IntN(2))})
		if len(run) == cap(run) || i == ingestBenchReports-1 {
			if err := sm.Apply(0, run, nil); err != nil {
				b.Fatal(err)
			}
			run = run[:0]
		}
	}
	out := wire.NewEncoder(io.Discard)
	var sc transport.AnswerScratch
	for name, q := range map[string]wire.Msg{
		"full":   wire.DomainQuery(wire.QuerySeriesItem, 3, 0, 0, 0),
		"scoped": wire.DomainQuery(wire.QueryPointItem, 3, d/2-1, 0, 0),
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sm.Answer(q, out, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Read-path cache benchmarks: the version-stamped memo on the top-k
// selection, the shared-server concurrent answer path, and single-
// flight coalescing through the gateway. All three are registered with
// the CI regression gate.

// readPathBenchM is the widest exact domain the transport accepts
// (transport.MaxDomainRows) — the regime where the m-point estimate
// sweep dominates a cold top-k answer and the memo pays for itself.
const readPathBenchM = 4096

// populateReadPathBench builds an m-row domain server over two counter
// shards fed ingestBenchReports reports through shard 0,
// version-stamped once at the end the way the collectors do per applied
// batch.
func populateReadPathBench(b *testing.B, m int) *hh.DomainServer {
	return populateDomainBench(b, ingestBenchD, m, 2)
}

// populateDomainBench is populateReadPathBench at horizon d over the
// given number of counter shards, of which only shard 0 is written.
func populateDomainBench(b *testing.B, d, m, shards int) *hh.DomainServer {
	b.Helper()
	ds := hh.NewDomainServer(d, m, 100, shards)
	g := rng.New(91, 92)
	for i := 0; i < ingestBenchReports; i++ {
		item := g.IntN(m)
		h := g.IntN(dyadic.NumOrders(d))
		bit := int8(1)
		if g.Bernoulli(0.5) {
			bit = -1
		}
		ds.Register(0, item, h)
		ds.Ingest(0, item, protocol.Report{
			User: i, Order: h, J: 1 + g.IntN(d>>uint(h)), Bit: bit,
		})
	}
	ds.AdvanceVersion(0)
	return ds
}

// BenchmarkAnswerTopKCold is the uncached top-k answer at m = 4096:
// every iteration advances the version stamp, so the memo misses and
// the full m-point estimate sweep plus the k-bounded selection run.
func BenchmarkAnswerTopKCold(b *testing.B) {
	ds := populateReadPathBench(b, readPathBenchM)
	q := wire.DomainQuery(wire.QueryTopK, 0, ingestBenchD/2, 0, 10)
	mode := transport.DomainMode(ingestBenchD, hh.ExactEncoding(readPathBenchM), 100)
	var ans wire.DomainAnswerFrame
	var sc transport.TopKScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.AdvanceVersion(0)
		if err := mode.ValidateRead(q); err != nil {
			b.Fatal(err)
		}
		if _, err := transport.AnswerDomainQueryInto(ds, q, &ans, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerTopKColdIdleShards is the uncached top-k answer at
// m = 1024, d = 256 on an accumulator of eight counter shards of which
// one was ever written — a server with -shards 8 fed by one connection.
// A never-written shard has no matrix, so the sweep costs what a
// one-shard accumulator's does; a sweep that folded every configured
// shard would cost about eight times as much.
func BenchmarkAnswerTopKColdIdleShards(b *testing.B) {
	const d, m = 256, 1024
	ds := populateDomainBench(b, d, m, 8)
	if n, _ := ds.Resident(); n != 1 {
		b.Fatalf("%d counter shards allocated, want 1", n)
	}
	q := wire.DomainQuery(wire.QueryTopK, 0, d/2, 0, 10)
	mode := transport.DomainMode(d, hh.ExactEncoding(m), 100)
	var ans wire.DomainAnswerFrame
	var sc transport.TopKScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.AdvanceVersion(0)
		if err := mode.ValidateRead(q); err != nil {
			b.Fatal(err)
		}
		if _, err := transport.AnswerDomainQueryInto(ds, q, &ans, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerTopKColdCycle is the uncached top-k answer at
// domain-rw's shape — m = 1024, d = 256, one written counter shard —
// with t cycling over eight periods whose prefix covers hold one to
// eight intervals (128, 192, …, 255), as the workload's reads at random
// periods do: the sweep's cost grows with the cover, and the benchmarks
// above, at t = d/2, read a one-interval cover. It reports allocations;
// the cold path makes none.
func BenchmarkAnswerTopKColdCycle(b *testing.B) {
	const d, m = 256, 1024
	ds := populateDomainBench(b, d, m, 1)
	var qs [8]wire.Msg
	for i := range qs {
		t := d - d>>(i+1) // i+1 set bits
		qs[i] = wire.DomainQuery(wire.QueryTopK, 0, t, 0, 10)
	}
	mode := transport.DomainMode(d, hh.ExactEncoding(m), 100)
	var ans wire.DomainAnswerFrame
	var sc transport.TopKScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		ds.AdvanceVersion(0)
		if err := mode.ValidateRead(q); err != nil {
			b.Fatal(err)
		}
		if _, err := transport.AnswerDomainQueryInto(ds, q, &ans, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerTopKWarm is the same query against an unchanged
// version stamp: the memoized selection is copied out without touching
// the counters. The gap to BenchmarkAnswerTopKCold is the read-path
// cache's whole value proposition (>= 5x at this m).
func BenchmarkAnswerTopKWarm(b *testing.B) {
	ds := populateReadPathBench(b, readPathBenchM)
	q := wire.DomainQuery(wire.QueryTopK, 0, ingestBenchD/2, 0, 10)
	mode := transport.DomainMode(ingestBenchD, hh.ExactEncoding(readPathBenchM), 100)
	var ans wire.DomainAnswerFrame
	var sc transport.TopKScratch
	if _, err := transport.AnswerDomainQueryInto(ds, q, &ans, &sc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mode.ValidateRead(q); err != nil {
			b.Fatal(err)
		}
		if _, err := transport.AnswerDomainQueryInto(ds, q, &ans, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// populateSeriesBench builds a live two-shard Boolean collector at
// d = 1024 fed ingestBenchReports reports as one run per shard, and
// returns it with its accumulator.
func populateSeriesBench(b *testing.B) (*transport.Collector, *protocol.Sharded) {
	b.Helper()
	acc := protocol.NewSharded(ingestBenchD, 100, 2)
	col := transport.NewShardedCollector(acc)
	g := rng.New(93, 94)
	ms := make([]wire.Msg, 0, ingestBenchReports/2)
	for i := 0; i < ingestBenchReports; i++ {
		h := g.IntN(dyadic.NumOrders(ingestBenchD))
		bit := int8(1 - 2*g.IntN(2))
		ms = append(ms, wire.FromReport(protocol.Report{User: i, Order: h, J: 1 + g.IntN(ingestBenchD>>uint(h)), Bit: bit}))
		if len(ms) == cap(ms) {
			if err := col.SendBatch(i&1, ms); err != nil {
				b.Fatal(err)
			}
			ms = ms[:0]
		}
	}
	return col, acc
}

// BenchmarkAnswerSeriesCold is a Boolean Series answer whose prefix
// series memo misses: every iteration is a run of one that changes no
// counter but bumps the version stamp, so the answer folds the raw row
// under the read locks, runs the prefix recurrence outside them into
// memo-owned buffers and encodes from them. It allocates nothing.
func BenchmarkAnswerSeriesCold(b *testing.B) {
	col, acc := populateSeriesBench(b)
	q := wire.QueryV2(wire.QuerySeries, 0, 0)
	enc := wire.NewEncoder(io.Discard)
	var sc transport.AnswerScratch
	one := dyadic.Interval{Order: 0, Index: 1}
	if _, _, err := col.Answer(q, enc, &sc); err != nil { // the memo's buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.IngestSum(0, one, 0)
		if _, hit, err := col.Answer(q, enc, &sc); err != nil || hit {
			b.Fatalf("cold series answer: hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkAnswerSeriesWarm is the same answer at an unchanged version
// stamp: the memo's series is encoded as it stands, with no lock taken
// and no counter read. The gap to BenchmarkAnswerSeriesCold is what a
// read burst saves on every Series or Window after the first.
func BenchmarkAnswerSeriesWarm(b *testing.B) {
	col, _ := populateSeriesBench(b)
	q := wire.QueryV2(wire.QuerySeries, 0, 0)
	enc := wire.NewEncoder(io.Discard)
	var sc transport.AnswerScratch
	if _, _, err := col.Answer(q, enc, &sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := col.Answer(q, enc, &sc); err != nil || !hit {
			b.Fatalf("warm series answer: hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkConcurrentQueries hammers one populated domain server from
// GOMAXPROCS goroutines, each with its own answer frame and selection
// scratch — the serve-loop arrangement. After the first miss fills the
// memo every answer is a warm copy-out, so this measures contention on
// the memo mutex, not estimation work.
func BenchmarkConcurrentQueries(b *testing.B) {
	ds := populateReadPathBench(b, readPathBenchM)
	q := wire.DomainQuery(wire.QueryTopK, 0, ingestBenchD/2, 0, 10)
	mode := transport.DomainMode(ingestBenchD, hh.ExactEncoding(readPathBenchM), 100)
	var warm wire.DomainAnswerFrame
	var wsc transport.TopKScratch
	if _, err := transport.AnswerDomainQueryInto(ds, q, &warm, &wsc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var ans wire.DomainAnswerFrame
		var sc transport.TopKScratch
		for pb.Next() {
			if err := mode.ValidateRead(q); err != nil {
				b.Error(err)
				return
			}
			if _, err := transport.AnswerDomainQueryInto(ds, q, &ans, &sc); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkGatewayQueryCoalesced measures the answer cache behind a write
// end to end: each iteration invalidates the gateway's cached gather with
// a small ingest batch, reads the series behind it on the writing
// connection — the fence, whose gather fills the cache — then fires the
// same series query from 8 persistent client connections at once. A write
// burst costs one gather however many connections read behind it: the
// reported gathers/op must be exactly 1 (it was 2 while a fence's gather
// was thrown away: the fence, then the miss the 8 coalesced onto), and the
// benchmark fails otherwise, so CI's benchmark pass catches a regression.
// coalesced+hits/op counts the queries answered without their own gather
// (clients per iteration).
func BenchmarkGatewayQueryCoalesced(b *testing.B) {
	const clients = 8
	reg := obs.NewRegistry()
	cb := startClusterBench(b, 3, ingestBenchD, 100, func(gw *cluster.Gateway) {
		gw.Metrics = transport.NewServerMetrics(reg)
	})

	ingestConn, err := net.Dial("tcp", cb.addr)
	if err != nil {
		b.Fatal(err)
	}
	defer ingestConn.Close()
	ingestEnc := wire.NewEncoder(ingestConn)
	ingestDec := wire.NewDecoder(ingestConn)

	q := wire.QueryV2(wire.QuerySeries, 0, 0)
	start := make([]chan struct{}, clients)
	done := make(chan error, clients)
	for c := 0; c < clients; c++ {
		start[c] = make(chan struct{})
		conn, err := net.Dial("tcp", cb.addr)
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		go func(conn net.Conn, start chan struct{}) {
			enc := wire.NewEncoder(conn)
			dec := wire.NewDecoder(conn)
			for range start {
				err := enc.Encode(q)
				if err == nil {
					err = enc.Flush()
				}
				if err == nil {
					_, err = dec.ReadAnswer()
				}
				done <- err
			}
		}(conn, start[c])
	}

	g := rng.New(7, 9)
	batch := make([]wire.Msg, 64)
	nextUser := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			h := g.IntN(dyadic.NumOrders(ingestBenchD))
			bit := int8(1)
			if g.Bernoulli(0.5) {
				bit = -1
			}
			batch[j] = wire.FromReport(protocol.Report{
				User: nextUser, Order: h, J: 1 + g.IntN(ingestBenchD>>uint(h)), Bit: bit,
			})
			nextUser++
		}
		if err := ingestEnc.EncodeBatch(batch); err != nil {
			b.Fatal(err)
		}
		if err := ingestEnc.Encode(q); err != nil { // fence
			b.Fatal(err)
		}
		if err := ingestEnc.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := ingestDec.ReadAnswer(); err != nil { // fence answer
			b.Fatal(err)
		}
		for c := 0; c < clients; c++ {
			start[c] <- struct{}{}
		}
		for c := 0; c < clients; c++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	for c := 0; c < clients; c++ {
		close(start[c])
	}
	saved := reg.Counter("query_coalesced_total").Value() + reg.Counter("query_cache_hits_total").Value()
	b.ReportMetric(float64(saved)/float64(b.N), "coalesced+hits/op")
	gathers := reg.Counter(obs.Label("gathers_total", "scope", "range")).Value() + reg.Counter(obs.Label("gathers_total", "scope", "full")).Value()
	b.ReportMetric(float64(gathers)/float64(b.N), "gathers/op")
	if gathers != int64(b.N) {
		b.Fatalf("%d gathers for %d write bursts, want one each: the fence's gather did not fill the cache", gathers, b.N)
	}
}
