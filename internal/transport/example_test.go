package transport_test

import (
	"bytes"
	"fmt"
	"os"

	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/internal/wire"
)

// ExampleOpenDurable walks the full durability cycle: ingest batch
// frames through a durable collector, cut a snapshot, ingest more (covered only by the
// write-ahead log), "crash" by discarding everything in memory, and
// reopen into a fresh accumulator. Recovery restores the snapshot and
// replays the WAL records past its cursor, so the recovered server
// answers exactly as an uninterrupted one would.
func ExampleOpenDurable() {
	dir, err := os.MkdirTemp("", "rtf-example-*")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)

	const d, scale = 8, 1.0
	meta := persist.Meta{Mechanism: "example", D: d, K: 4, Eps: 1, Scale: scale}

	dc, _, err := transport.OpenDurable(protocol.NewSharded(d, scale, 1), dir, meta, transport.DurableOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	// ingest is what a serving front does with one batch frame: decode
	// it under the store's ingest contract, then journal and apply the
	// records with the bytes that encoded them.
	ingest := func(ms []wire.Msg) error {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.EncodeBatch(ms); err != nil {
			return err
		}
		if err := enc.Flush(); err != nil {
			return err
		}
		contract := dc.Mode().Ingest()
		f, err := wire.NewDecoder(&buf).NextFrame(&contract)
		if err != nil {
			return err
		}
		return dc.Apply(0, f.Recs, f.Wire)
	}

	// Three users each announce order 0 and report a +1 bit for the
	// leaf interval [3..3]; then a snapshot covers them.
	var ms []wire.Msg
	for u := 0; u < 3; u++ {
		ms = append(ms,
			wire.Hello(u, 0),
			wire.FromReport(protocol.Report{User: u, Order: 0, J: 3, Bit: 1}))
	}
	if err := ingest(ms); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := dc.Snapshot(); err != nil {
		fmt.Println(err)
		return
	}

	// A fourth user arrives after the snapshot — only the WAL has it.
	err = ingest([]wire.Msg{
		wire.Hello(3, 0),
		wire.FromReport(protocol.Report{User: 3, Order: 0, J: 3, Bit: 1}),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	dc.Close() // crash: the in-memory accumulator is gone

	acc := protocol.NewSharded(d, scale, 1)
	dc2, stats, err := transport.OpenDurable(acc, dir, meta, transport.DurableOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer dc2.Close()

	fmt.Printf("recovered %d users (snapshot + %d replayed WAL records)\n",
		acc.Users(), stats.Replayed)
	fmt.Printf("estimate at t=3: %g\n", acc.EstimateAt(3))
	// Output:
	// recovered 4 users (snapshot + 1 replayed WAL records)
	// estimate at t=3: 4
}
