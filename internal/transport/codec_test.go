package transport

import (
	"bytes"
	"io"
	"testing/iotest"

	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// The byte format is internal/wire's. These helpers build and read it by
// hand for the tests of this package through wire's exported API only.

// The version bytes the hand-built frames carry: the byte format's, pinned
// here like the golden bytes.
const (
	queryWireVersion  = 1 // queries, answers, unscoped sums requests and frames
	scopedSumsVersion = 2 // sums requests and frames that carry a scope
	viewWireVersion   = 1 // membership frames
)

// appendMsg appends the scalar wire encoding of m to b.
func appendMsg(b []byte, m *wire.Msg) ([]byte, error) { return wire.AppendMsgs(b, []wire.Msg{*m}) }

// appendBatch appends one batch frame of type typ carrying ms.
func appendBatch(b []byte, typ wire.MsgType, ms []wire.Msg) ([]byte, error) {
	return wire.AppendMsgs(wire.AppendBatchHeader(b, typ, len(ms)), ms)
}

// decodeOne decodes the scalar message at the front of b the way a
// mode-less receiver reads it — as the body of a one-message batch,
// through Decoder.NextBatch — and returns it with its length. The bytes
// reach the decoder one at a time, so it reads exactly the message's: a
// message b cuts short fails with io.ErrUnexpectedEOF, and one whose
// varint runs on past wire.MaxMsgLen bytes with the malformed-message
// error.
func decodeOne(b []byte) (wire.Msg, int, error) {
	src := &countingReader{r: bytes.NewReader(b)}
	head := bytes.NewReader([]byte{byte(wire.MsgBatch), 1})
	ms, err := wire.NewDecoder(io.MultiReader(head, iotest.OneByteReader(src))).NextBatch()
	if err != nil {
		return wire.Msg{}, 0, err
	}
	return ms[0], src.n, nil
}

// readSumsOf decodes one sums frame of wire type typ: Boolean or domain.
func readSumsOf(dec *wire.Decoder, typ wire.MsgType) (wire.RawSums, error) {
	if typ == wire.MsgSumsFrame {
		f, err := dec.ReadSums()
		return wire.RawSums(f), err
	}
	return dec.ReadDomainSums()
}

// encodeSumsOf writes f as one sums frame of wire type typ.
func encodeSumsOf(enc *wire.Encoder, typ wire.MsgType, f wire.RawSums) error {
	if typ == wire.MsgSumsFrame {
		return enc.EncodeSums(wire.SumsFrame(f))
	}
	return enc.EncodeDomainSums(f)
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// SumsFromSharded folds a live Boolean accumulator into a full frame: a
// point-in-time cut at run granularity. Only tests call it, as the
// oracle the served and gathered sums are held to.
func SumsFromSharded(acc *protocol.Sharded) wire.SumsFrame {
	return wire.SumsFrame(boolState{acc: acc}.Sums(wire.Scope{}))
}
