package transport

import (
	"io"
	"testing"

	"rtf/internal/hh"
	"rtf/internal/protocol"
)

// TestAnswerIntoAllocFree pins the steady-state serve-side answer path
// at zero allocations per query: once the version-keyed memos are warm
// and the reusable frame/scratch/encoder buffers have grown to size,
// answering and encoding a top-k or point-item query must not allocate.
// A regression here silently reintroduces per-query garbage on the hot
// read path, so this is a hard gate rather than a benchmark.
func TestAnswerIntoAllocFree(t *testing.T) {
	const d, m, g, k = 8, 256, 32, 10

	ds := hh.NewDomainServer(d, m, 1.5, 2)
	hs := hh.NewHashedDomainServer(d, hh.LolohaEncoding(m, g, 0xfeed), 2.0, 2)
	for u := 0; u < 64; u++ {
		ds.Register(u%2, u%m, 0)
		hs.Inner().Register(u%2, u%g, 0)
		for tt := 1; tt <= d; tt++ {
			bit := int8(1)
			if u%3 == 0 {
				bit = -1
			}
			ds.Ingest(u%2, u%m, protocol.Report{User: u, Order: 0, J: tt, Bit: bit})
			hs.Inner().Ingest(u%2, u%g, protocol.Report{User: u, Order: 0, J: tt, Bit: bit})
		}
	}
	ds.AdvanceVersion(0)
	hs.AdvanceVersion(0)

	var ans DomainAnswerFrame
	var sc TopKScratch
	enc := NewEncoder(io.Discard)

	answer := func(msg Msg, hashed bool) {
		t.Helper()
		var err error
		if hashed {
			_, err = AnswerDomainQueryInto(hs, msg, &ans, &sc)
		} else {
			_, err = AnswerDomainQueryInto(ds, msg, &ans, &sc)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeDomainAnswer(ans); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		msg    Msg
		hashed bool
	}{
		{"domain top-k", Msg{Type: MsgDomainQuery, Kind: QueryTopK, L: d / 2, K: k}, false},
		{"hashed top-k", Msg{Type: MsgDomainQuery, Kind: QueryTopK, L: d / 2, K: k}, true},
		{"hashed point-item", Msg{Type: MsgDomainQuery, Kind: QueryPointItem, Item: 7, L: d / 2}, true},
	}
	for _, tc := range cases {
		// Warm the memo and grow the reusable buffers before measuring.
		answer(tc.msg, tc.hashed)
		allocs := testing.AllocsPerRun(100, func() { answer(tc.msg, tc.hashed) })
		if allocs != 0 {
			t.Errorf("%s: warm answer path allocates %.1f times per query, want 0", tc.name, allocs)
		}
	}
}
