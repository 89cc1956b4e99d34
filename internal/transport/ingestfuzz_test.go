package transport

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"rtf/internal/wire"
)

// refFrame is what a batch body decodes to through the general decoder
// and the exported per-message validators — the mode-less view every
// release before the kernel served from, one message at a time
// (decodeOne): the records and reads of its accepted prefix, the bytes
// that prefix spans, and the error the first refused message is refused
// with (nil when the body runs out first; io.ErrUnexpectedEOF when it
// runs out inside a message, the malformed-message error when a varint
// runs on past wire.MaxMsgLen bytes).
type refFrame struct {
	recs  []wire.Rec
	reads []wire.FrameRead
	offs  []int // where each accepted message starts
	used  int
	err   error
}

func referenceDecode(c wireCase, body []byte) refFrame {
	ingest := c.mode.Ingest()
	var ref refFrame
	for ref.used < len(body) {
		m, n, err := decodeOne(body[ref.used:])
		if err != nil {
			ref.err = err
			return ref
		}
		if ingest.Reads.Has(m.Type) {
			ref.reads = append(ref.reads, wire.FrameRead{At: len(ref.recs), Off: ref.used, End: ref.used + n, Msg: m})
			ref.offs = append(ref.offs, ref.used)
			ref.used += n
			continue
		}
		if err = ingest.Explain(&m); err != nil {
			ref.err = err
			return ref
		}
		r := wire.Rec{User: m.User, Order: uint8(m.Order), J: uint32(m.J), Bit: m.Bit, Len: uint8(n)}
		if c.name != "bool" {
			r.Item = uint32(m.Item)
		}
		ref.recs = append(ref.recs, r)
		ref.offs = append(ref.offs, ref.used)
		ref.used += n
	}
	return ref
}

// FuzzIngestKernel is the differential between the fused
// decode-and-validate kernel and the general decoder it replaced on the
// served path. For arbitrary bytes read as a batch body under each
// mode's contract, with the reader handing them over chunk bytes at a
// time so the window ends inside every field: each message, decoded
// alone with the kernel in front, is the reference's record, read or
// refusal — so whatever the kernel accepts the reference accepts, byte
// for byte and field for field; the frame NextFrame returns is the
// reference's records, reads, positions and wire; and the first message
// the reference refuses fails the frame with the reference's error.
func FuzzIngestKernel(f *testing.F) {
	for mode, c := range wireCases() {
		for _, padded := range []bool{false, true} {
			ms := append(c.ingest(1<<14, 3), c.read)
			ms = append(append(ms, c.ingest(100, 2)...), c.badRep)
			body := frame(f, wire.MsgBatch, ms, c.mode.Reads(), padded)[2:]
			f.Add(body, uint8(mode), uint8(0))
			f.Add(body, uint8(mode), uint8(5))
			f.Add(body[:len(body)/2], uint8(mode), uint8(1))
		}
	}
	cases := wireCases()
	f.Fuzz(func(t *testing.T, body []byte, mode, chunk uint8) {
		c := cases[int(mode)%len(cases)]
		ingest := c.mode.Ingest()
		ref := referenceDecode(c, body)

		// Each message alone, at every message of the accepted prefix and
		// at the refused one, as the one message of a frame held whole in
		// the decoder's buffer — so the kernel sees it whenever
		// wire.MaxMsgLen bytes stand behind it. The kernel may pass a
		// message on to the general decoder, never accept what that
		// refuses or reads otherwise.
		nrec := 0
		for i, off := range append(ref.offs, ref.used) {
			if off == len(body) {
				break // the body ran out between messages
			}
			stream := append(wire.AppendBatchHeader(nil, wire.MsgBatch, 1), body[off:]...)
			f, err := wire.NewDecoder(bytes.NewReader(stream)).NextFrame(&ingest)
			switch {
			case i == len(ref.offs):
				if err == nil {
					t.Fatalf("message at offset %d decoded alone as %+v / %+v; the reference refuses it: %v", off, f.Recs, f.Reads, ref.err)
				}
			case isReadAt(ref.reads, off):
				if err != nil || len(f.Recs) != 0 || len(f.Reads) != 1 {
					t.Fatalf("read at offset %d decoded alone as %+v / %+v, %v", off, f.Recs, f.Reads, err)
				}
			default:
				if err != nil || len(f.Reads) != 0 || len(f.Recs) != 1 || f.Recs[0] != ref.recs[nrec] {
					t.Fatalf("message at offset %d decoded alone as %+v / %+v, %v; the reference's record is %+v", off, f.Recs, f.Reads, err, ref.recs[nrec])
				}
				nrec++
			}
		}

		// The frame: the accepted prefix alone decodes to the reference...
		k := len(ref.recs) + len(ref.reads)
		size := int(chunk)
		if size == 0 {
			size = len(body) + 8
		}
		decode := func(count int) (*wire.Frame, error) {
			stream := append(wire.AppendBatchHeader(nil, wire.MsgBatch, count), body...)
			return wire.NewDecoder(&streamConn{r: bytes.NewReader(stream), chunk: size}).NextFrame(&ingest)
		}
		if k > 0 {
			fr, err := decode(k)
			if err != nil {
				t.Fatalf("frame of the %d accepted messages: %v", k, err)
			}
			if !reflect.DeepEqual(fr.Recs, ref.recs) && (len(fr.Recs) > 0 || len(ref.recs) > 0) {
				t.Fatalf("records %+v, reference %+v", fr.Recs, ref.recs)
			}
			if !reflect.DeepEqual(fr.Reads, ref.reads) && (len(fr.Reads) > 0 || len(ref.reads) > 0) {
				t.Fatalf("reads %+v, reference %+v", fr.Reads, ref.reads)
			}
			if !bytes.Equal(fr.Wire, body[:ref.used]) {
				t.Fatalf("wire is %d bytes, the accepted prefix %d, or they differ", len(fr.Wire), ref.used)
			}
		}
		// ...and one message more fails it the way the reference fails.
		_, err := decode(k + 1)
		switch {
		case err == nil:
			t.Fatalf("frame of %d messages decoded; the reference refuses message %d: %v", k+1, k+1, ref.err)
		case ref.err == nil || errors.Is(ref.err, io.ErrUnexpectedEOF):
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("body ran out after or inside message %d; frame of %d failed with %v, want unexpected EOF", k, k+1, err)
			}
		case err.Error() != ref.err.Error():
			t.Fatalf("message %d refused with %q, reference %q", k+1, err, ref.err)
		}
	})
}

func isReadAt(reads []wire.FrameRead, off int) bool {
	for _, rd := range reads {
		if rd.Off == off {
			return true
		}
	}
	return false
}
