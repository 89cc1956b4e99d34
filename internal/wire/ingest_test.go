package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strconv"
	"testing"

	"rtf/internal/hh"
)

// kernelMode is one mode's ingest contract twice over: wide, where every
// field can reach past three varint bytes and still be in range, and
// narrow, where the range checks sit at small values.
type kernelMode struct {
	name         string
	wide, narrow Ingest
	// hello and report build the mode's messages; item is ignored by
	// the Boolean mode.
	hello  func(user, item, order int, seed uint64) Msg
	report func(user, item, order, j int) Msg
}

const kernelTestSeed = 0x5eed

func kernelModes() []kernelMode {
	const wideD, narrowD, narrowRows = 1 << 22, 1 << 10, 300
	return []kernelMode{
		{
			name:   "bool",
			wide:   BoolIngest(wideD),
			narrow: BoolIngest(narrowD),
			hello:  func(u, _, o int, _ uint64) Msg { return Hello(u, o) },
			report: func(u, _, o, j int) Msg { return Msg{Type: MsgReport, User: u, Order: int16(o), J: j, Bit: 1} },
		},
		{
			name:   "exact",
			wide:   DomainIngest(wideD, hh.ExactEncoding(wideD)),
			narrow: DomainIngest(narrowD, hh.ExactEncoding(narrowRows)),
			hello:  func(u, i, o int, _ uint64) Msg { return DomainHello(u, i, o) },
			report: func(u, i, o, j int) Msg {
				return Msg{Type: MsgDomainReport, User: u, Item: int32(i), Order: int16(o), J: j, Bit: 1}
			},
		},
		{
			name:   "hashed",
			wide:   DomainIngest(wideD, hh.LolohaEncoding(1<<30, wideD, kernelTestSeed)),
			narrow: DomainIngest(narrowD, hh.LolohaEncoding(1<<20, narrowRows, kernelTestSeed)),
			hello:  func(u, i, o int, seed uint64) Msg { return HashedDomainHello(u, i, o, seed) },
			report: func(u, i, o, j int) Msg {
				return Msg{Type: MsgDomainReport, User: u, Item: int32(i), Order: int16(o), J: j, Bit: 1}
			},
		},
	}
}

// TestIngestKernelBoundaries decodes single messages whose fields sit on
// either side of every limit the kernel checks — the one-, two- and
// three-byte varint widths, past which the general path decodes, the
// contract's item, order and index ranges, the bit byte and a hashed
// hello's seed — each as a frame with MaxMsgLen bytes behind it, so the
// kernel sees it. The record (or refusal) must be what decodeScalarInto
// followed by Check gives, field for field and Len included; the kernel
// itself must take every accepted message whose varints are all three
// bytes or fewer, and leave every other one to the general path. Each
// mode's last case is a frame the kernel stops in and resumes.
func TestIngestKernelBoundaries(t *testing.T) {
	type kcase struct {
		name   string
		narrow bool
		msg    func(km kernelMode, c *Ingest) Msg
		bitRaw int // the report's bit byte as sent when >= 0
	}
	var cases []kcase
	for _, v := range []int{127, 128, 16383, 16384, 1<<21 - 1, 1 << 21} {
		cases = append(cases,
			kcase{name: "user=" + strconv.Itoa(v), bitRaw: -1, msg: func(km kernelMode, c *Ingest) Msg { return km.report(v, 1, 0, 1) }},
			kcase{name: "hello/user=" + strconv.Itoa(v), bitRaw: -1, msg: func(km kernelMode, c *Ingest) Msg { return km.hello(v, 1, 0, c.Seed) }},
			kcase{name: "item=" + strconv.Itoa(v), bitRaw: -1, msg: func(km kernelMode, c *Ingest) Msg { return km.report(1, v, 0, 1) }},
			kcase{name: "hello/item=" + strconv.Itoa(v), bitRaw: -1, msg: func(km kernelMode, c *Ingest) Msg { return km.hello(1, v, 0, c.Seed) }},
			kcase{name: "j=" + strconv.Itoa(v), bitRaw: -1, msg: func(km kernelMode, c *Ingest) Msg { return km.report(1, 1, 0, v) }},
		)
	}
	narrow := func(name string, msg func(km kernelMode, c *Ingest) Msg) kcase {
		return kcase{name: name, narrow: true, bitRaw: -1, msg: msg}
	}
	cases = append(cases,
		narrow("item=rows-1", func(km kernelMode, c *Ingest) Msg { return km.report(1, c.Rows-1, 0, 1) }),
		narrow("item=rows", func(km kernelMode, c *Ingest) Msg { return km.report(1, c.Rows, 0, 1) }),
		narrow("hello/item=rows-1", func(km kernelMode, c *Ingest) Msg { return km.hello(1, c.Rows-1, 0, c.Seed) }),
		narrow("hello/item=rows", func(km kernelMode, c *Ingest) Msg { return km.hello(1, c.Rows, 0, c.Seed) }),
		narrow("order=logd", func(km kernelMode, c *Ingest) Msg { return km.report(1, 1, c.LogD, 1) }),
		narrow("order=logd+1", func(km kernelMode, c *Ingest) Msg { return km.report(1, 1, c.LogD+1, 1) }),
		narrow("hello/order=logd", func(km kernelMode, c *Ingest) Msg { return km.hello(1, 1, c.LogD, c.Seed) }),
		narrow("hello/order=logd+1", func(km kernelMode, c *Ingest) Msg { return km.hello(1, 1, c.LogD+1, c.Seed) }),
		narrow("j=0", func(km kernelMode, c *Ingest) Msg { return km.report(1, 1, 2, 0) }),
		narrow("j=d>>order", func(km kernelMode, c *Ingest) Msg { return km.report(1, 1, 2, c.D>>2) }),
		narrow("j=d>>order+1", func(km kernelMode, c *Ingest) Msg { return km.report(1, 1, 2, c.D>>2+1) }),
		narrow("j=d", func(km kernelMode, c *Ingest) Msg { return km.report(1, 1, 0, c.D) }),
		narrow("j=d+1", func(km kernelMode, c *Ingest) Msg { return km.report(1, 1, 0, c.D+1) }),
		narrow("hello/seed", func(km kernelMode, c *Ingest) Msg { return HashedDomainHello(1, 1, 0, c.Seed) }),
		narrow("hello/seed+1", func(km kernelMode, c *Ingest) Msg { return HashedDomainHello(1, 1, 0, c.Seed+1) }),
	)
	for _, bit := range []int{0, 1, 2} {
		c := narrow("bit-byte="+strconv.Itoa(bit), func(km kernelMode, c *Ingest) Msg { return km.report(1, 1, 0, 1) })
		c.bitRaw = bit
		cases = append(cases, c)
	}

	for _, km := range kernelModes() {
		for _, tc := range cases {
			t.Run(km.name+"/"+tc.name, func(t *testing.T) {
				c := &km.wide
				if tc.narrow {
					c = &km.narrow
				}
				m := tc.msg(km, c)
				msg, err := appendMsg(nil, &m)
				if err != nil {
					t.Fatal(err)
				}
				if tc.bitRaw >= 0 {
					msg[len(msg)-1] = byte(tc.bitRaw)
				}
				// The message, then MaxMsgLen bytes of what follows in the
				// stream, so the kernel's precondition holds.
				win := append(bytes.Clone(msg), make([]byte, MaxMsgLen)...)

				var ref Msg
				var want Rec
				n, err := decodeScalarInto(win, &ref)
				accepted := err == nil && c.Check(&ref, &want)
				if accepted {
					want.Len = uint8(n)
				}

				recs := make([]Rec, 1)
				at, took := c.run(win, 0, recs)
				switch kernel := accepted && varintWidth(c, &m) <= 3; {
				case kernel && (took != 1 || at != n || recs[0] != want):
					t.Fatalf("kernel took %d message(s) to offset %d, %+v; want the whole %d-byte message as %+v", took, at, recs[0], n, want)
				case !kernel && (took != 0 || at != 0):
					t.Fatalf("kernel took %d message(s) to offset %d, %+v; the general path must take it (accepted %v)", took, at, recs[0], accepted)
				}

				stream := append(AppendBatchHeader(nil, MsgBatch, 1), win...)
				f, ferr := NewDecoder(bytes.NewReader(stream)).NextFrame(c)
				if !accepted {
					wantErr := err
					if wantErr == nil {
						wantErr = c.Explain(&ref)
					}
					if ferr == nil || ferr.Error() != wantErr.Error() {
						t.Fatalf("frame decoded with %v; the reference refuses it with %v", ferr, wantErr)
					}
					return
				}
				if ferr != nil || len(f.Reads) != 0 || len(f.Recs) != 1 || f.Recs[0] != want || !bytes.Equal(f.Wire, msg) {
					t.Fatalf("frame decoded as %+v / %+v (wire %x), %v; the reference's record is %+v (wire %x)", f.Recs, f.Reads, f.Wire, ferr, want, msg)
				}
			})
		}
		t.Run(km.name+"/resume", func(t *testing.T) { checkKernelResumes(t, km) })
	}
}

// checkKernelResumes decodes one frame in which the kernel stops
// mid-window twice — at a read, then at a report whose user id takes a
// four-byte varint — and resumes behind each: the frame's records, reads
// and wire must be what decoding every message through decodeScalarInto
// and the contract gives.
func checkKernelResumes(t *testing.T, km kernelMode) {
	c := &km.narrow
	body, lead := kernelResumeBody(km, c)
	if at, n := c.run(body, 0, make([]Rec, 64)); n != lead {
		t.Fatalf("kernel took %d messages to offset %d before stopping; want the %d before the read", n, at, lead)
	}

	var wantRecs []Rec
	var wantReads []FrameRead
	for off := 0; off < len(body); {
		var m Msg
		n, err := decodeScalarInto(body[off:], &m)
		if err != nil {
			t.Fatal(err)
		}
		if c.Reads.Has(m.Type) {
			wantReads = append(wantReads, FrameRead{At: len(wantRecs), Off: off, End: off + n, Msg: m})
		} else {
			var r Rec
			if !c.Check(&m, &r) {
				t.Fatalf("message at %d refused: %v", off, c.Explain(&m))
			}
			r.Len = uint8(n)
			wantRecs = append(wantRecs, r)
		}
		off += n
	}

	stream := append(AppendBatchHeader(nil, MsgBatch, len(wantRecs)+len(wantReads)), body...)
	f, err := NewDecoder(bytes.NewReader(stream)).NextFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Recs, wantRecs) {
		t.Fatalf("records %+v, want %+v", f.Recs, wantRecs)
	}
	if !reflect.DeepEqual(f.Reads, wantReads) {
		t.Fatalf("reads %+v, want %+v", f.Reads, wantReads)
	}
	if !bytes.Equal(f.Wire, body) {
		t.Fatalf("wire %x, want %x", f.Wire, body)
	}
}

// kernelResumeBody is the resumption frame's body under c: lead reports
// the kernel takes, a read, a report from a user whose id takes four
// varint bytes, and enough reports behind it that the kernel resumes
// with MaxMsgLen bytes to spare.
func kernelResumeBody(km kernelMode, c *Ingest) (body []byte, lead int) {
	rows := max(c.Rows, 1)
	var ms []Msg
	for u := 0; u < 12; u++ {
		ms = append(ms, km.report(200+u, u%rows, u%3, 1+u))
	}
	lead = len(ms)
	read := QueryV2(QueryPoint, 5, 0)
	if km.name != "bool" {
		read = DomainQuery(QueryPointItem, 3, 5, 0, 0)
	}
	ms = append(ms, read, km.report(1<<21, 1, 0, 7))
	for u := 0; u < 20; u++ {
		ms = append(ms, km.hello(300+u, u%rows, u%4, c.Seed), km.report(300+u, u%rows, u%4, 1))
	}
	for i := range ms {
		var err error
		if body, err = appendMsg(body, &ms[i]); err != nil {
			panic(err)
		}
	}
	return body, lead
}

// varintWidth is the widest varint, in bytes, among the fields of m
// that c's messages carry: the user, the item or bucket, the index.
func varintWidth(c *Ingest, m *Msg) int {
	w := len(binary.AppendUvarint(nil, uint64(m.User)))
	if c.Rows != 0 {
		w = max(w, len(binary.AppendUvarint(nil, uint64(m.Item))))
	}
	if m.Type == c.Report {
		w = max(w, len(binary.AppendUvarint(nil, uint64(m.J))))
	}
	return w
}
