package cluster

import (
	"bytes"
	"io"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/internal/wire"
)

// TestGatewayCachedReadsAllocFree pins a gateway's cached reads at zero
// allocations, in every mode over both placements: once one session has
// written and fenced, a clean session's reads gather once and are then
// served from the cached entry — the fold's memos, the connection's
// scratch and the read path's instrument handles — so testing.AllocsPerRun
// over a client that writes pre-encoded frames and reads each answer's
// bytes into a fixed buffer counts nothing. Every kind but the hashed
// series-item, which decodes every bucket's series per read, is driven.
func TestGatewayCachedReadsAllocFree(t *testing.T) {
	const d, m, scale = 16, 40, 2.0
	enc := hh.LolohaEncoding(m, 8, 0xabcd)
	modes := []struct {
		name  string
		mode  transport.Mode
		batch []wire.Msg
		reads []wire.Msg
	}{
		{"boolean", transport.BoolMode(d, scale), nil, []wire.Msg{
			wire.QueryV2(wire.QuerySeries, 0, 0), // the full gather the others ride
			wire.QueryV2(wire.QueryWindow, 3, 11),
			wire.QueryV2(wire.QueryPoint, 7, 0),
			wire.QueryV2(wire.QueryChange, 2, 13),
		}},
		{"exact", transport.DomainMode(d, hh.ExactEncoding(m), scale), nil, []wire.Msg{
			wire.DomainQuery(wire.QuerySeriesItem, 9, 0, 0, 0),
			wire.DomainQuery(wire.QueryPointItem, 9, 7, 0, 0),
			wire.DomainQuery(wire.QueryTopK, 0, 7, 0, 5),
		}},
		{"hashed", transport.DomainMode(d, enc, scale), nil, []wire.Msg{
			wire.DomainQuery(wire.QueryPointItem, 9, 7, 0, 0),
			wire.DomainQuery(wire.QueryTopK, 0, 7, 0, 5),
		}},
	}
	for i := range modes {
		for u := 0; u < 60; u++ {
			item, bit := (u*7)%m, int8(1-2*(u%3/2))
			r := protocol.Report{User: u, Order: 0, J: 1 + u%d, Bit: bit}
			switch modes[i].name {
			case "boolean":
				modes[i].batch = append(modes[i].batch, wire.Hello(u, 0), wire.FromReport(r))
			case "exact":
				modes[i].batch = append(modes[i].batch, wire.DomainHello(u, item, 0), wire.FromDomainReport(item, r))
			default:
				b := enc.Bucket(item)
				modes[i].batch = append(modes[i].batch, wire.HashedDomainHello(u, b, 0, enc.Seed), wire.FromDomainReport(b, r))
			}
		}
	}
	for _, pl := range testPlacements {
		for _, md := range modes {
			c := pl.serve(t, md.mode, transport.ClusterOptions{}, nil)
			writer := dialGateway(t, c.addr)
			if err := writer.enc.EncodeBatch(md.batch); err != nil {
				t.Fatal(err)
			}
			if err := writer.enc.Encode(md.reads[0]); err != nil { // the fence
				t.Fatal(err)
			}
			if err := writer.enc.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := readAnswer(writer.dec, md.reads[0]); err != nil {
				t.Fatal(err)
			}
			writer.close()

			reader := dialGateway(t, c.addr)
			frames, wants := make([][]byte, len(md.reads)), make([][]byte, len(md.reads))
			for i, q := range md.reads {
				var err error
				if frames[i], err = wire.AppendMsgs(nil, []wire.Msg{q}); err != nil {
					t.Fatal(err)
				}
				// The first answer's bytes, read through a decoder that
				// records them: nothing else is in flight.
				if _, err := reader.conn.Write(frames[i]); err != nil {
					t.Fatal(err)
				}
				var first bytes.Buffer
				if err := readAnswer(wire.NewDecoder(io.TeeReader(reader.conn, &first)), q); err != nil {
					t.Fatalf("%s/%s: %+v: %v", pl.name, md.name, q, err)
				}
				wants[i] = first.Bytes()
			}
			buf := make([]byte, 1<<12)
			read := func() {
				for i, f := range frames {
					if _, err := reader.conn.Write(f); err != nil {
						t.Fatal(err)
					}
					got := buf[:len(wants[i])]
					if _, err := io.ReadFull(reader.conn, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, wants[i]) {
						t.Fatalf("%s/%s: read %d answered differently from the first time", pl.name, md.name, i)
					}
				}
			}
			read()
			if allocs := testing.AllocsPerRun(50, read) / float64(len(frames)); allocs != 0 {
				t.Errorf("%s/%s: %.2f allocations per cached read, want 0", pl.name, md.name, allocs)
			}
			reader.close()
		}
	}
}

// readAnswer reads the answer to read frame q.
func readAnswer(dec *wire.Decoder, q wire.Msg) error {
	var err error
	if q.Type == wire.MsgQueryV2 {
		_, err = dec.ReadAnswer()
	} else {
		_, err = dec.ReadDomainAnswer()
	}
	return err
}
