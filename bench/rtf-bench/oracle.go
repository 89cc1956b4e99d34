package main

import (
	"bytes"
	"fmt"
	"math"

	"rtf/internal/hh"
	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/ldp"
)

// oracle is the in-process serial reference engine — the same one
// rtf-sim's acceptance modes check against. It is fed exactly the
// batches the serving topology acknowledged as applied, so every
// served answer must equal its answer in every bit.
type oracle struct {
	mode mode
	b    *ldp.Server       // Boolean workloads
	d    *ldp.DomainServer // domain workloads
}

func newOracle(s *spec, hashSeed uint64) (*oracle, error) {
	o := &oracle{mode: s.mode}
	var err error
	if s.mode == modeBool {
		o.b, err = ldp.NewServer(s.d, s.options(hashSeed)...)
	} else {
		o.d, err = ldp.NewDomainServer(s.d, s.m, s.options(hashSeed)...)
	}
	return o, err
}

func (o *oracle) register(h hello) error {
	if o.mode == modeBool {
		return o.b.Register(int(h.order))
	}
	return o.d.Register(int(h.item), int(h.order))
}

func (o *oracle) ingest(r rep) error {
	lr := ldp.Report{User: int(r.user), Order: int(r.order), J: int(r.j), Bit: r.bit}
	if o.mode == modeBool {
		return o.b.Ingest(lr)
	}
	return o.d.Ingest(ldp.DomainReport{Item: int(r.item), Report: lr})
}

// answer is a served answer reduced to what is compared: the value
// list and, for top-k, the item list.
type answer struct {
	items  []int
	values []float64
}

// answer puts q to the reference.
func (o *oracle) answer(q ldp.Query) (answer, error) {
	var (
		a   ldp.Answer
		err error
	)
	if o.mode == modeBool {
		a, err = o.b.Answer(q)
	} else {
		a, err = o.d.Answer(q)
	}
	if err != nil {
		return answer{}, err
	}
	switch q.Kind {
	case ldp.Point, ldp.Change, ldp.PointItem:
		return answer{values: []float64{a.Value}}, nil
	default:
		return answer{items: a.Items, values: a.Series}, nil
	}
}

// equal reports bit-for-bit equality (NaN never occurs: estimates are
// finite linear functions of integer counters).
func (a answer) equal(b answer) bool {
	if len(a.items) != len(b.items) || len(a.values) != len(b.values) {
		return false
	}
	for i := range a.items {
		if a.items[i] != b.items[i] {
			return false
		}
	}
	for i := range a.values {
		if math.Float64bits(a.values[i]) != math.Float64bits(b.values[i]) {
			return false
		}
	}
	return true
}

// sumsRequest is the raw-sums request frame for the workload's mode.
func sumsRequest(s *spec, hashSeed uint64) transport.Msg {
	switch s.mode {
	case modeBool:
		return transport.Sums()
	case modeExact:
		return transport.DomainSums()
	default:
		return transport.HashedDomainSums(s.m, s.g, hashSeed)
	}
}

// checkSums compares the served raw interval sums with the reference's
// counters. Both sides are reduced to the accumulator state encoding
// (a deterministic function of the folded integer counters), so byte
// equality is counter-for-counter equality.
func (o *oracle) checkSums(dec *transport.Decoder) error {
	var served, want []byte
	var err error
	if o.mode == modeBool {
		f, ferr := dec.ReadSums()
		if ferr != nil {
			return fmt.Errorf("reading sums frame: %w", ferr)
		}
		srv := protocol.NewServer(f.D, f.Scale)
		if err := f.MergeInto(srv); err != nil {
			return err
		}
		served = srv.MarshalState()
		want, err = o.b.MarshalState()
	} else {
		f, ferr := dec.ReadDomainSums()
		if ferr != nil {
			return fmt.Errorf("reading domain sums frame: %w", ferr)
		}
		ds := hh.NewDomainServer(f.D, f.M, f.Scale, 1)
		if err := f.MergeInto(ds); err != nil {
			return err
		}
		served = ds.MarshalState()
		want, err = o.d.MarshalState()
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(served, want) {
		return fmt.Errorf("served raw sums differ from the reference's counters (%d vs %d state bytes)", len(served), len(want))
	}
	return nil
}
