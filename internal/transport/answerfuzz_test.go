package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"
	"testing/iotest"

	"rtf/internal/wire"
)

// FuzzAnswerDecode holds the client's answer decoders, which read their
// value and item blocks out of the buffered window, to the per-value
// decoders they replaced (refReadAnswer, refReadDomainAnswer below): on
// arbitrary bytes ReadAnswer and ReadDomainAnswer return the same frame,
// values bit for bit, or the same error — through a reader that hands
// out everything at once and through one that hands out a byte per
// read. A frame that decodes is then decoded again from its own bytes
// followed by a reader that fails the test if read, so a decoder never
// waits on bytes the peer has not sent, and every proper prefix of it
// must fail with io.ErrUnexpectedEOF. The seeds hold 0, 1, 511, 512,
// 513 and 1,024 values: 512 fill the client's 4 KiB read buffer.
func FuzzAnswerDecode(f *testing.F) {
	for _, n := range []int{0, 1, 511, 512, 513, 1024} {
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(i)*1.5 - 300
		}
		if n > 0 {
			values[0] = math.Copysign(0, -1)
			values[n-1] = math.Float64frombits(0x7ff8_dead_beef_0001) // a NaN payload
		}
		items := make([]int, n)
		for i := range items {
			items[i] = i * 37 // one- and two-byte uvarints
		}
		if n > 0 {
			items[n-1] = math.MaxInt
		}
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		frames := []func() error{
			func() error {
				return enc.EncodeAnswer(wire.AnswerFrame{Kind: wire.QuerySeries, L: 1, R: n, Values: values})
			},
			func() error {
				return enc.EncodeDomainAnswer(wire.DomainAnswerFrame{Kind: wire.QuerySeriesItem, Item: 3, Values: values})
			},
			func() error {
				return enc.EncodeDomainAnswer(wire.DomainAnswerFrame{Kind: wire.QueryTopK, L: 7, K: n, Items: items, Values: values})
			},
		}
		for _, encode := range frames {
			buf.Reset()
			if err := encode(); err != nil {
				f.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				f.Fatal(err)
			}
			f.Add(bytes.Clone(buf.Bytes()))
		}
	}
	f.Add([]byte{byte(wire.MsgDomainAnswer), 1, 7, 0, 1, 0, 2, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})       // item overflows
	f.Add([]byte{byte(wire.MsgDomainAnswer), 1, 7, 0, 1, 0, 2, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // overlong item
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAnswerDecoder(t, "answer", data, func(d *wire.Decoder) (any, error) { return d.ReadAnswer() },
			func(r *bufio.Reader) (any, error) { return refReadAnswer(r) })
		checkAnswerDecoder(t, "domain answer", data, func(d *wire.Decoder) (any, error) { return d.ReadDomainAnswer() },
			func(r *bufio.Reader) (any, error) { return refReadDomainAnswer(r) })
	})
}

// checkAnswerDecoder runs one answer decoder and its per-value reference
// over data, see FuzzAnswerDecode.
func checkAnswerDecoder(t *testing.T, what string, data []byte, read func(*wire.Decoder) (any, error), ref func(*bufio.Reader) (any, error)) {
	src := bytes.NewReader(data)
	rr := bufio.NewReader(src)
	want, wantErr := ref(rr)
	frameLen := len(data) - src.Len() - rr.Buffered()
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(data),
		"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
	} {
		got, err := read(wire.NewDecoder(r))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s, %s reader: error %v, per-value decoder %v", what, name, err, wantErr)
		}
		if err == nil && !sameAnswer(got, want) {
			t.Fatalf("%s, %s reader: %+v, per-value decoder %+v", what, name, got, want)
		}
	}
	if wantErr != nil {
		return
	}
	got, err := read(wire.NewDecoder(io.MultiReader(bytes.NewReader(data[:frameLen]), pastFrame{t})))
	if err != nil || !sameAnswer(got, want) {
		t.Fatalf("%s alone on its stream: %+v, %v", what, got, err)
	}
	for i := 1; i < frameLen; i++ {
		if _, err := read(wire.NewDecoder(bytes.NewReader(data[:i]))); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s cut at byte %d of %d: %v, want %v", what, i, frameLen, err, io.ErrUnexpectedEOF)
		}
	}
}

// pastFrame is the stream behind a frame: reading it fails the test.
type pastFrame struct{ t *testing.T }

func (p pastFrame) Read([]byte) (int, error) {
	p.t.Error("the decoder read past the end of its frame")
	return 0, io.EOF
}

// sameAnswer compares two decoded answer frames, values bit for bit.
func sameAnswer(a, b any) bool {
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	switch a := a.(type) {
	case wire.AnswerFrame:
		b := b.(wire.AnswerFrame)
		return a.Kind == b.Kind && a.L == b.L && a.R == b.R && (a.Values == nil) == (b.Values == nil) &&
			slices.Equal(bits(a.Values), bits(b.Values))
	case wire.DomainAnswerFrame:
		b := b.(wire.DomainAnswerFrame)
		return a.Kind == b.Kind && a.Item == b.Item && a.L == b.L && a.R == b.R && a.K == b.K &&
			(a.Items == nil) == (b.Items == nil) && slices.Equal(a.Items, b.Items) &&
			(a.Values == nil) == (b.Values == nil) && slices.Equal(bits(a.Values), bits(b.Values))
	}
	return false
}

// refReadAnswer is ReadAnswer as it was before it read through the
// window: every value with its own io.ReadFull.
func refReadAnswer(r *bufio.Reader) (wire.AnswerFrame, error) {
	tb, err := r.ReadByte()
	if err != nil {
		return wire.AnswerFrame{}, err
	}
	if wire.MsgType(tb) != wire.MsgAnswer {
		return wire.AnswerFrame{}, fmt.Errorf("transport: expected answer frame, got message type %d", tb)
	}
	ver, err := r.ReadByte()
	if err != nil {
		return wire.AnswerFrame{}, refTruncated(err)
	}
	if ver != 1 {
		return wire.AnswerFrame{}, fmt.Errorf("transport: unsupported answer version %d", ver)
	}
	kind, err := r.ReadByte()
	if err != nil {
		return wire.AnswerFrame{}, refTruncated(err)
	}
	var hdr [3]uint64
	for i := range hdr {
		if hdr[i], err = binary.ReadUvarint(r); err != nil {
			return wire.AnswerFrame{}, refTruncated(err)
		}
	}
	l, rr, n := hdr[0], hdr[1], hdr[2]
	if l > math.MaxInt || rr > math.MaxInt {
		return wire.AnswerFrame{}, fmt.Errorf("transport: answer bound overflows")
	}
	if n > wire.MaxAnswerLen {
		return wire.AnswerFrame{}, fmt.Errorf("transport: answer length %d exceeds limit %d", n, wire.MaxAnswerLen)
	}
	a := wire.AnswerFrame{Kind: wire.QueryKind(kind), L: int(l), R: int(rr)}
	if n > 0 {
		a.Values = make([]float64, n)
	}
	if err := refReadFloats(r, a.Values); err != nil {
		return wire.AnswerFrame{}, err
	}
	return a, nil
}

// refReadDomainAnswer is ReadDomainAnswer as it was before it read
// through the window: every item with its own binary.ReadUvarint, every
// value with its own io.ReadFull.
func refReadDomainAnswer(r *bufio.Reader) (wire.DomainAnswerFrame, error) {
	tb, err := r.ReadByte()
	if err != nil {
		return wire.DomainAnswerFrame{}, err
	}
	if wire.MsgType(tb) != wire.MsgDomainAnswer {
		return wire.DomainAnswerFrame{}, fmt.Errorf("transport: expected domain answer frame, got message type %d", tb)
	}
	ver, err := r.ReadByte()
	if err != nil {
		return wire.DomainAnswerFrame{}, refTruncated(err)
	}
	if ver != 1 {
		return wire.DomainAnswerFrame{}, fmt.Errorf("transport: unsupported domain answer version %d", ver)
	}
	kind, err := r.ReadByte()
	if err != nil {
		return wire.DomainAnswerFrame{}, refTruncated(err)
	}
	a := wire.DomainAnswerFrame{Kind: wire.QueryKind(kind)}
	var fields [4]uint64
	for i, name := range []string{"item", "l", "r", "k"} {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return wire.DomainAnswerFrame{}, refTruncated(err)
		}
		if v > math.MaxInt {
			return wire.DomainAnswerFrame{}, fmt.Errorf("transport: domain answer %s overflows", name)
		}
		fields[i] = v
	}
	a.Item, a.L, a.R, a.K = int(fields[0]), int(fields[1]), int(fields[2]), int(fields[3])
	nItems, err := binary.ReadUvarint(r)
	if err != nil {
		return wire.DomainAnswerFrame{}, refTruncated(err)
	}
	if nItems > wire.MaxAnswerLen {
		return wire.DomainAnswerFrame{}, fmt.Errorf("transport: domain answer item count %d exceeds limit %d", nItems, wire.MaxAnswerLen)
	}
	if nItems > 0 {
		a.Items = make([]int, nItems)
	}
	for i := range a.Items {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return wire.DomainAnswerFrame{}, refTruncated(err)
		}
		if v > math.MaxInt {
			return wire.DomainAnswerFrame{}, fmt.Errorf("transport: domain answer item overflows")
		}
		a.Items[i] = int(v)
	}
	nValues, err := binary.ReadUvarint(r)
	if err != nil {
		return wire.DomainAnswerFrame{}, refTruncated(err)
	}
	if nValues > wire.MaxAnswerLen {
		return wire.DomainAnswerFrame{}, fmt.Errorf("transport: domain answer length %d exceeds limit %d", nValues, wire.MaxAnswerLen)
	}
	if nValues > 0 {
		a.Values = make([]float64, nValues)
	}
	if err := refReadFloats(r, a.Values); err != nil {
		return wire.DomainAnswerFrame{}, err
	}
	return a, nil
}

func refReadFloats(r *bufio.Reader, dst []float64) error {
	var raw [8]byte
	for i := range dst {
		if _, err := io.ReadFull(r, raw[:]); err != nil {
			return refTruncated(err)
		}
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
	return nil
}

func refTruncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
