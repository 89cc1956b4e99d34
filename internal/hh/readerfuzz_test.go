package hh

import (
	"encoding/binary"
	"math"
	"testing"

	"rtf/internal/protocol"
	"rtf/internal/rng"
)

// readerInput is the item-reader fuzzer's input format:
//
//	[0]     flags: bit 0 hashed, (b>>1)%3 + 1 shards, (b>>3)%6 = log₂ d
//	[1]     exact: m = 2 + b%15; hashed: g = 2 + b%7
//	[2]     hashed: m = 2 + b%255
//	[3:11]  hashed: the epoch seed, little-endian
//	[11]    Boolean scale 0.25 + b/16
//	[12]    k = b % (m+2), so k past the catalogue is clamped
//	[13]    records written before the first round of reads: b % (n+1)
//	[14:]   records of 4 bytes each (at most readerMaxRecs):
//	        [0] bit 0 report (else hello), (b>>1) % shards = the shard
//	        [1] row = b % rows
//	        [2] order = b % (log₂ d + 1)
//	        [3] j = 1 + (b>>1) % (d>>order), bit +1 if b&1 else −1
const (
	readerHeader  = 14
	readerMaxRecs = 512
)

// readerSeed builds an input of the format above with n records drawn
// from the seed's stream.
func readerSeed(flags, rowsByte, mByte byte, seed uint64, n int, draw uint64) []byte {
	b := make([]byte, readerHeader, readerHeader+4*n)
	b[0], b[1], b[2] = flags, rowsByte, mByte
	binary.LittleEndian.PutUint64(b[3:11], seed)
	g := rng.New(draw, draw+1)
	b[11], b[12], b[13] = byte(g.IntN(64)), byte(g.IntN(256)), byte(g.IntN(256))
	for i := 0; i < 4*n; i++ {
		b = append(b, byte(g.IntN(256)))
	}
	return b
}

// FuzzItemReader checks the item reader of both encodings bit for bit
// against an oracle that shares no read code with it: one serial
// protocol.Server per row at the matrix's per-row scale, the decode
// formula written out, and a full sort for the top k. The writes go
// through the served path (Lock, one run per stretch of records on one
// shard) in two rounds, each followed by a version bump and a full read
// pass. Every pass reads cold and then warm: an exact point read never
// reports a memo hit, a hashed one misses first and hits after, and a
// top-k hits on its repeat. Under a hashed encoding the pass also reads
// the bucket rows (Inner()) at the same version before and after the
// item reads, so a memo shared between the two views serves one the
// other's values and fails.
func FuzzItemReader(f *testing.F) {
	f.Add(readerSeed(0x00, 3, 0, 0, 0, 1))                         // exact, empty, d = 1
	f.Add(readerSeed(0x1a, 14, 0, 0, 40, 2))                       // exact, 2 shards, d = 8
	f.Add(readerSeed(0x2c, 6, 0, 0, 200, 3))                       // exact, 3 shards, d = 32
	f.Add(readerSeed(0x01, 0, 0, 5, 12, 4))                        // hashed, m = g = 2
	f.Add(readerSeed(0x13, 6, 98, 0x9e3779b97f4a7c15, 150, 5))     // hashed, 2 shards, d = 4
	f.Add(readerSeed(0x2d, 3, 254, 0xabc, 300, 6))                 // hashed, 3 shards, d = 32, m = 256
	f.Add(readerSeed(0x25, 5, 20, 1<<40, readerMaxRecs, 7))        // hashed, 3 shards, d = 16
	f.Add(readerSeed(0x21, 1, 250, math.MaxUint64, 64, 8))         // hashed, g = 3, d = 16
	f.Add(append(readerSeed(0x09, 2, 7, 77, 0, 9), 0xff, 0, 0, 1)) // one report, cut short
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < readerHeader {
			return
		}
		hashed := in[0]&1 == 1
		shards := 1 + int(in[0]>>1)%3
		logD := int(in[0]>>3) % 6
		d := 1 << logD
		boolScale := 0.25 + float64(in[11])/16
		var enc DomainEncoding
		if hashed {
			enc = LolohaEncoding(2+int(in[2])%255, 2+int(in[1])%7, binary.LittleEndian.Uint64(in[3:11]))
		} else {
			enc = ExactEncoding(2 + int(in[1])%15)
		}
		rows, m := enc.Rows(), enc.M
		k := int(in[12]) % (m + 2)

		// The reader under test, and the rows it reads. The exact server
		// is its own rows.
		var items interface {
			Items
			EstimateItemAt(item, t int) float64
		}
		var inner *DomainServer
		if hashed {
			hs := NewHashedDomainServer(d, enc, boolScale, shards)
			items, inner = hs, hs.Inner()
		} else {
			inner = NewDomainServer(d, m, boolScale, shards)
			items = inner
		}
		oracle := make([]*protocol.Server, rows)
		for b := range oracle {
			oracle[b] = protocol.NewServer(d, float64(rows)*boolScale)
		}

		recs := in[readerHeader:]
		n := min(len(recs)/4, readerMaxRecs)
		write := func(lo, hi int) {
			for i := lo; i < hi; {
				shard := int(recs[4*i]>>1) % shards
				w := inner.Lock(shard)
				for ; i < hi && int(recs[4*i]>>1)%shards == shard; i++ {
					r := recs[4*i : 4*i+4]
					row, order := int(r[1])%rows, int(r[2])%(logD+1)
					if r[0]&1 == 0 {
						w.Register(row, order)
						oracle[row].Register(order)
						continue
					}
					bit := int8(-1)
					if r[3]&1 == 1 {
						bit = 1
					}
					rep := protocol.Report{User: i, Order: order, J: 1 + int(r[3]>>1)%(d>>order), Bit: bit}
					w.Ingest(row, rep)
					oracle[row].Ingest(rep)
				}
				w.Unlock()
			}
			// A round that wrote nothing still moves the version, so
			// every pass starts cold.
			inner.AdvanceVersion(0)
		}

		// want is the oracle's item values from its row values.
		want := func(rowVal func(b int) float64, x int, total float64) float64 {
			if !hashed {
				return rowVal(x)
			}
			g := float64(enc.G)
			return (rowVal(enc.Bucket(x)) - total/g) * g / (g - 1)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

		readPass := func(round int) {
			rowEst := make([]float64, rows)
			itemEst := make([]float64, m)
			for tt := 1; tt <= d; tt++ {
				var total float64
				for b := range rowEst {
					rowEst[b] = oracle[b].EstimateAt(tt)
					total += rowEst[b]
				}
				for x := range itemEst {
					itemEst[x] = want(func(b int) float64 { return rowEst[b] }, x, total)
				}
				wantTop, wantRowTop := refTopK(itemEst, k), refTopK(rowEst, k)
				readRows := func(warm bool) {
					if !hashed {
						return
					}
					got, hit := inner.AppendTopK(nil, tt, k)
					if hit != warm || !sameTopK(got, wantRowTop) {
						t.Fatalf("round %d t=%d: Inner().AppendTopK(k=%d) = %v (hit %v), want %v (hit %v)", round, tt, k, got, hit, wantRowTop, warm)
					}
					for b, v := range rowEst {
						if got, hit := inner.EstimateItemAtCached(b, tt); hit || !same(got, v) {
							t.Fatalf("round %d t=%d: Inner().EstimateItemAtCached(%d) = %v (hit %v), want %v", round, tt, b, got, hit, v)
						}
					}
				}

				readRows(false)
				for pass, warm := range []bool{false, true} {
					for x, v := range itemEst {
						got, hit := items.EstimateItemAtCached(x, tt)
						if wantHit := hashed && (warm || x > 0); hit != wantHit || !same(got, v) {
							t.Fatalf("round %d t=%d pass %d: EstimateItemAtCached(%d) = %v (hit %v), want %v (hit %v)", round, tt, pass, x, got, hit, v, wantHit)
						}
						if got := items.EstimateItemAt(x, tt); !same(got, v) {
							t.Fatalf("round %d t=%d: EstimateItemAt(%d) = %v, want %v", round, tt, x, got, v)
						}
					}
					got, hit := items.AppendTopK(nil, tt, k)
					if hit != warm || !sameTopK(got, wantTop) {
						t.Fatalf("round %d t=%d: AppendTopK(k=%d) = %v (hit %v), want %v (hit %v)", round, tt, k, got, hit, wantTop, warm)
					}
				}
				readRows(true)
			}

			rowSeries := make([][]float64, rows)
			for b := range rowSeries {
				rowSeries[b] = oracle[b].EstimateSeries()
				if hashed {
					if got := inner.EstimateItemSeries(b); !sameSeries(got, rowSeries[b]) {
						t.Fatalf("round %d: Inner().EstimateItemSeries(%d) = %v, want %v", round, b, got, rowSeries[b])
					}
				}
			}
			for x := 0; x < m; x++ {
				wantSeries := make([]float64, d)
				for i := range wantSeries {
					var total float64
					for b := range rowSeries {
						total += rowSeries[b][i]
					}
					wantSeries[i] = want(func(b int) float64 { return rowSeries[b][i] }, x, total)
				}
				if got := items.EstimateItemSeries(x); !sameSeries(got, wantSeries) {
					t.Fatalf("round %d: EstimateItemSeries(%d) = %v, want %v", round, x, got, wantSeries)
				}
			}
		}

		split := int(in[13]) % (n + 1)
		write(0, split)
		readPass(1)
		write(split, n)
		readPass(2)
	})
}

func sameSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
