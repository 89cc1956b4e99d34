package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"rtf/internal/protocol"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	msgs := []Msg{
		Hello(0, 0),
		Hello(123456, 10),
		FromReport(protocol.Report{User: 7, Order: 3, J: 42, Bit: 1}),
		FromReport(protocol.Report{User: 999999, Order: 0, J: 1, Bit: -1}),
	}
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if enc.BytesWritten() != int64(buf.Len()) {
		t.Errorf("BytesWritten = %d, buffer has %d", enc.BytesWritten(), buf.Len())
	}
	dec := NewDecoder(&buf)
	for i, want := range msgs {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("message %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Errorf("expected io.EOF at end, got %v", err)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(user uint32, order uint8, j uint16, bitRaw bool) bool {
		bit := int8(1)
		if bitRaw {
			bit = -1
		}
		m := FromReport(protocol.Report{
			User:  int(user),
			Order: int(order % 30),
			J:     int(j) + 1,
			Bit:   bit,
		})
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if enc.Encode(m) != nil || enc.Flush() != nil {
			return false
		}
		got, err := NewDecoder(&buf).Next()
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	enc := NewEncoder(io.Discard)
	if err := enc.Encode(Msg{Type: MsgReport, Bit: 0}); err == nil {
		t.Error("bit 0 accepted")
	}
	if err := enc.Encode(Msg{Type: 99}); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Encode(FromReport(protocol.Report{User: 300, Order: 2, J: 500, Bit: 1})); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]))
		if _, err := dec.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: got %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestDecodeBadBytes(t *testing.T) {
	// Unknown type byte.
	dec := NewDecoder(bytes.NewReader([]byte{99, 0}))
	if _, err := dec.Next(); err == nil {
		t.Error("unknown type decoded")
	}
	// Report with invalid bit byte: type=2, user=0, order=0, j=1, bit=7.
	dec = NewDecoder(bytes.NewReader([]byte{2, 0, 0, 1, 7}))
	if _, err := dec.Next(); err == nil {
		t.Error("invalid bit byte decoded")
	}
}

func TestMsgReportConversion(t *testing.T) {
	r := protocol.Report{User: 5, Order: 1, J: 3, Bit: -1}
	if got := FromReport(r).Report(); got != r {
		t.Errorf("round trip = %+v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Report() on hello did not panic")
		}
	}()
	Hello(1, 2).Report()
}

func TestWireSizeCompact(t *testing.T) {
	// A small-field report must encode in ≤ 6 bytes.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Encode(FromReport(protocol.Report{User: 100, Order: 5, J: 12, Bit: 1})); err != nil {
		t.Fatal(err)
	}
	enc.Flush()
	if buf.Len() > 6 {
		t.Errorf("report encoded in %d bytes, want <= 6", buf.Len())
	}
}
