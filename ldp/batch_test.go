package ldp_test

import (
	"bytes"
	"strings"
	"testing"

	"rtf/ldp"
)

// TestBatchRoundTripMatchesDirect checks that reports shipped through
// BatchReporter frames and re-ingested with IngestFrom produce a server
// bit-for-bit identical to one fed the same reports directly.
func TestBatchRoundTripMatchesDirect(t *testing.T) {
	const d, k, users = 32, 2, 200
	direct, err := ldp.NewServer(d, ldp.WithSparsity(k))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := ldp.NewServer(d, ldp.WithSparsity(k))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	rep, err := ldp.NewBatchReporter(&buf, 64)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users; u++ {
		c, err := ldp.NewClient(u, d, ldp.WithSparsity(k), ldp.WithSeed(int64(u)))
		if err != nil {
			t.Fatal(err)
		}
		if err := direct.Register(c.Order()); err != nil {
			t.Fatal(err)
		}
		if err := rep.Hello(u, c.Order()); err != nil {
			t.Fatal(err)
		}
		for tt := 1; tt <= d; tt++ {
			r, ok := c.Observe(tt > d/2 && u%2 == 0)
			if !ok {
				continue
			}
			if err := direct.Ingest(r); err != nil {
				t.Fatal(err)
			}
			if err := rep.Report(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rep.Buffered() == 0 {
		t.Fatal("expected a partial batch to be buffered")
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	if rep.Buffered() != 0 {
		t.Fatal("flush left messages buffered")
	}
	if rep.BytesWritten() == 0 {
		t.Fatal("no bytes written")
	}

	if err := batched.IngestFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if batched.Users() != direct.Users() {
		t.Fatalf("users: got %d, want %d", batched.Users(), direct.Users())
	}
	be, de := batched.Estimates(), direct.Estimates()
	for i := range be {
		if be[i] != de[i] {
			t.Fatalf("estimate %d: got %v, want %v", i, be[i], de[i])
		}
	}
}

// TestBatchReporterValidation checks argument and report validation.
func TestBatchReporterValidation(t *testing.T) {
	if _, err := ldp.NewBatchReporter(&bytes.Buffer{}, 0); err == nil {
		t.Error("batch size 0: expected error")
	}
	rep, err := ldp.NewBatchReporter(&bytes.Buffer{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Report(ldp.Report{Bit: 0, J: 1}); err == nil {
		t.Error("bad bit: expected error")
	}
}

// TestBatchReporterRefusesOversizedOrder checks that a report whose order
// does not fit the wire message's 16-bit field fails at Flush, whose
// batch then ships nothing, instead of wrapping into a small valid order
// (2^16 + 1 wraps to 1).
func TestBatchReporterRefusesOversizedOrder(t *testing.T) {
	var buf bytes.Buffer
	rep, err := ldp.NewBatchReporter(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Report(ldp.Report{User: 3, Order: 1<<16 + 1, J: 1, Bit: 1}); err != nil {
		t.Fatalf("Report refuses before Flush: %v", err)
	}
	if err := rep.Flush(); err == nil || !strings.Contains(err.Error(), "order") {
		t.Fatalf("Flush of an order beyond 16 bits: %v, want an order refusal", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused batch wrote %d bytes", buf.Len())
	}
}

// TestIngestFromRejects checks that corrupt streams and out-of-protocol
// messages are rejected with descriptive errors.
func TestIngestFromRejects(t *testing.T) {
	srv, err := ldp.NewServer(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.IngestFrom(strings.NewReader("\x63garbage")); err == nil {
		t.Error("garbage: expected error")
	}
	// A query frame is valid wire format but not an ingest message.
	if err := srv.IngestFrom(bytes.NewReader([]byte{4, 3})); err == nil {
		t.Error("query in ingest stream: expected error")
	}
	// A report violating the dyadic bounds must be rejected.
	if err := srv.IngestFrom(bytes.NewReader([]byte{2, 0, 0, 200, 1, 1})); err == nil {
		t.Error("out-of-range report: expected error")
	}
}
