package transport

import (
	"fmt"

	"rtf/internal/hh"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/wire"
)

// This file is the Mode contract: the one place that knows, for each of
// the two protocol modes a deployment can serve — Boolean, and domain
// under its encoding (exact or hashed, a value of hh.DomainEncoding) —
// which frame types are reads, how ingest and read frames are
// validated, how a validated run is applied, how a read is answered, and
// how raw sums are exported, fetched, merged and restored. The serving
// core (serve.go), the collectors and the gateway are written once
// against it; the mode is chosen at construction and nothing above this
// file names a mode-specific frame type.

// Mode is the protocol mode of a deployment. It holds the mode's
// parameters and no counters; NewState builds the accumulator it
// describes. What a mode ingests is data (Ingest), so one decode loop
// serves every mode; how it applies a run is a method that takes the
// whole run, so each mode keeps its own monomorphic inner loop.
type Mode interface {
	// Name is the mode's queries_total mechanism label: "boolean",
	// "domain" or "hashed-domain".
	Name() string
	// Ingest is the mode's ingest contract: the two message types it
	// ingests and the ranges of their fields. A front decodes every frame
	// under it (Decoder.NextFrame) before anything is applied or
	// forwarded, which is what makes batches atomic and lets a gateway
	// promise its backends accept what it accepted.
	Ingest() wire.Ingest
	// SumsRequest is the frame that asks a node of this mode for its
	// raw sums.
	SumsRequest() wire.Msg
	// ValidateRead range-checks one read frame.
	ValidateRead(m wire.Msg) error
	// Scope is the raw-sums scope read frame m (already validated) is
	// evaluated over: what a front that answers m from gathered sums
	// has to gather. A sums request's is the one it carries.
	Scope(m wire.Msg) wire.Scope
	// NewState builds an empty accumulator spread over the given number
	// of counter shards.
	NewState(shards int) State
	// Fold adds gathered frames up element-wise — plain integer
	// additions into the first, in frame order, refusing a frame
	// accumulated under different parameters or another scope — and
	// builds the read-only single-shard state that holds exactly the
	// total by constructing it over that matrix, not by adding into a
	// zeroed accumulator: under a scope it is as small as the frames.
	// The frames are consumed.
	Fold(frames []wire.RawSums) (State, error)
	// ReadSums decodes the response to SumsRequest (or to a per-shard
	// sums request, which every mode answers in the same frame).
	ReadSums(d *wire.Decoder) (wire.RawSums, error)
	// EncodeSums writes that response.
	EncodeSums(e *wire.Encoder, f wire.RawSums) error
	// CheckMeta refuses a data directory written under a different
	// domain size or encoding.
	CheckMeta(meta persist.Meta) error
}

// Reader answers a mode's read frames from some state: a live
// accumulator, a fold of gathered sums, or a shard map.
type Reader interface {
	// Answer writes the response to read frame m (already validated) on
	// e, without flushing. memo reports that the answer path is backed
	// by a version-keyed memo and hit that the memo was warm; only live
	// states report either.
	Answer(m wire.Msg, e *wire.Encoder, sc *AnswerScratch) (memo, hit bool, err error)
}

// State is one mode's accumulator: integer dyadic counters plus the
// fixed linear estimator over them.
type State interface {
	Reader
	// Apply accumulates a run of records into the given counter shard (a
	// routing hint; addition is exact and commutative) under that shard's
	// write lock, taken once for the run: each record is one plain add,
	// and the run advances the version stamp its reads' memos key on
	// once, before the lock is released.
	Apply(shard int, run []wire.Rec) (hellos, reports int64)
	MarshalState() []byte
	RestoreState(b []byte) error
	// ShardSums exports one counter shard's raw counters under a scope,
	// MarshalShard serializes that shard alone, and ReplaceShard replaces
	// its counters with a MarshalShard payload's as one run.
	ShardSums(shard int, sc wire.Scope) wire.RawSums
	MarshalShard(shard int) []byte
	ReplaceShard(shard int, b []byte) error
	Users() int
	// Resident reports how many counter shards hold a matrix — a shard
	// gets one from its first writer — and the bytes those matrices
	// occupy.
	Resident() (shards int, bytes int64)
}

// AnswerScratch is the per-connection answer frame and selection
// buffer: warm top-k and point-item answers reuse it and allocate
// nothing (pinned by TestAnswerIntoAllocFree).
type AnswerScratch struct {
	frame wire.DomainAnswerFrame
	topK  TopKScratch
}

// dims are the parameters every mode shares: horizon, row parameter (0
// for Boolean, m for exact, g for hashed) and the Boolean estimator
// scale.
type dims struct {
	d, m  int
	scale float64
}

// Scope implements Mode for every mode: point-shaped reads evaluate the
// prefix [1..t], a change its own range, series-shaped reads every
// column, and a sums request says itself.
func (dims) Scope(m wire.Msg) wire.Scope {
	switch {
	case m.Type != wire.MsgQueryV2 && m.Type != wire.MsgDomainQuery:
		return wire.Scope{L: m.L, R: m.R}
	case m.Kind == wire.QueryPoint || m.Kind == wire.QueryPointItem || m.Kind == wire.QueryTopK:
		return wire.Scope{L: 1, R: m.L}
	case m.Kind == wire.QueryChange:
		return wire.Scope{L: m.L, R: m.R}
	}
	return wire.Scope{}
}

// merge adds the frames' matrices into the first one's and returns it
// with the scope they share (a zero full matrix for no frames). Each
// frame's configuration is checked here because the state built over
// the total never sees the frames.
func (p dims) merge(frames []wire.RawSums) ([]int64, wire.Scope, error) {
	if len(frames) == 0 {
		return make([]int64, max(p.m, 1)*protocol.RawStride(p.d)), wire.Scope{}, nil
	}
	sc := frames[0].Scope
	if err := sc.Check(p.d); err != nil {
		return nil, sc, err
	}
	n := max(p.m, 1) * protocol.ScopedStride(p.d, sc.L, sc.R)
	total := frames[0].Counters
	for i, f := range frames {
		if f.D != p.d || f.M != p.m || f.Scale != p.scale || f.Scope != sc || len(f.Counters) != n {
			return nil, sc, fmt.Errorf("transport: sums frame %d has d=%d m=%d scale=%v scope=%v (%d counters), configured d=%d m=%d scale=%v, gathering scope=%v (%d counters)",
				i, f.D, f.M, f.Scale, f.Scope, len(f.Counters), p.d, p.m, p.scale, sc, n)
		}
		if i > 0 {
			for j, v := range f.Counters {
				total[j] += v
			}
		}
	}
	return total, sc, nil
}

// ---------------------------------------------------------------------------
// Boolean mode.

type boolMode struct{ dims }

// BoolMode is the Boolean protocol at horizon d (a power of two) and
// estimator scale.
func BoolMode(d int, scale float64) Mode { return boolMode{dims{d: d, scale: scale}} }

func (boolMode) Name() string          { return "boolean" }
func (boolMode) SumsRequest() wire.Msg { return wire.Sums() }

func (p boolMode) Ingest() wire.Ingest { return wire.BoolIngest(p.d) }

func (p boolMode) ValidateRead(m wire.Msg) error {
	if m.Type == wire.MsgQueryV2 {
		return wire.ValidateQuery(p.d, m)
	}
	return p.Scope(m).Check(p.d)
}

func (p boolMode) NewState(shards int) State {
	return newBoolState(protocol.NewSharded(p.d, p.scale, shards))
}

func (p boolMode) Fold(frames []wire.RawSums) (State, error) {
	total, sc, err := p.merge(frames)
	if err != nil {
		return nil, err
	}
	acc, err := protocol.ShardedOver(p.d, p.scale, sc.L, sc.R, total)
	if err != nil {
		return nil, err
	}
	return newBoolState(acc), nil
}

func (boolMode) ReadSums(d *wire.Decoder) (wire.RawSums, error) {
	f, err := d.ReadSums()
	return wire.RawSums(f), err
}
func (boolMode) EncodeSums(e *wire.Encoder, f wire.RawSums) error {
	return e.EncodeSums(wire.SumsFrame(f))
}

func (boolMode) CheckMeta(persist.Meta) error { return nil }

// boolState is the Boolean accumulator and its version-keyed series
// memo (seriesmemo.go). A fold's accumulator never changes version, so
// its memo, once filled, serves every series read of the gather.
type boolState struct {
	acc  *protocol.Sharded
	memo *seriesMemo
}

// newBoolState is an accumulator's state, with an empty memo.
func newBoolState(acc *protocol.Sharded) boolState { return boolState{acc, new(seriesMemo)} }

func (s boolState) Apply(shard int, run []wire.Rec) (hellos, reports int64) {
	return applyRun(s.acc.Lock(shard), run)
}

func (s boolState) Answer(m wire.Msg, e *wire.Encoder, _ *AnswerScratch) (memo, hit bool, err error) {
	if m.Type != wire.MsgQueryV2 {
		return false, false, e.EncodeSums(wire.SumsFrame(s.Sums(wire.Scope{L: m.L, R: m.R})))
	}
	if err := wire.ValidateQuery(s.acc.D(), m); err != nil {
		return false, false, err
	}
	if m.Kind == wire.QueryChange {
		// A change reads its own direct cover, never the series.
		a := wire.AnswerFrame{Kind: m.Kind, L: m.L, R: m.R, Values: []float64{s.acc.EstimateChange(m.L, m.R)}}
		return false, false, e.EncodeAnswer(a)
	}
	hit, err = s.memo.answer(s.acc, m, e)
	return true, hit, err
}

func (s boolState) Sums(sc wire.Scope) wire.RawSums { return s.sums(sc, s.acc.FoldInto) }

func (s boolState) ShardSums(shard int, sc wire.Scope) wire.RawSums {
	return s.sums(sc, func(cols []int, dst []int64) { s.acc.FoldShardInto(shard, cols, dst) })
}

// sums is a raw-sums export under a scope whose counters fold fills.
func (s boolState) sums(sc wire.Scope, fold func(cols []int, dst []int64)) wire.RawSums {
	f := wire.RawSums{D: s.acc.D(), Scale: s.acc.Scale(), Scope: sc}
	f.Counters = make([]int64, protocol.ScopedStride(f.D, sc.L, sc.R))
	fold(s.acc.Columns(sc.L, sc.R), f.Counters)
	return f
}

func (s boolState) MarshalState() []byte                   { return s.acc.MarshalState() }
func (s boolState) RestoreState(b []byte) error            { return s.acc.RestoreState(b) }
func (s boolState) MarshalShard(shard int) []byte          { return s.acc.MarshalShard(shard) }
func (s boolState) ReplaceShard(shard int, b []byte) error { return s.acc.ReplaceShard(shard, b) }
func (s boolState) Users() int                             { return s.acc.Users() }
func (s boolState) Resident() (int, int64)                 { return s.acc.Resident() }

// ---------------------------------------------------------------------------
// Domain mode.

type domainMode struct {
	dims
	enc hh.DomainEncoding
}

// DomainMode is domain-valued tracking under an encoding: one counter
// row per item under the exact encoding, g bucket rows standing in for
// a catalogue of enc.M items under a hashed one, with item queries
// answered through the encoding's reader (hh.ItemsOver). Panics on an
// invalid encoding.
func DomainMode(d int, enc hh.DomainEncoding, scale float64) Mode {
	if err := enc.Validate(); err != nil {
		panic("transport: " + err.Error())
	}
	return &domainMode{dims{d, enc.Rows(), scale}, enc}
}

func (p *domainMode) Name() string {
	if p.enc.Hashed() {
		return "hashed-domain"
	}
	return "domain"
}

// SumsRequest is the exact encoding's plain request, or a hashed one's
// request carrying the full encoding.
func (p *domainMode) SumsRequest() wire.Msg {
	if p.enc.Hashed() {
		return wire.HashedDomainSums(p.enc.M, p.enc.G, p.enc.Seed)
	}
	return wire.DomainSums()
}

func (p *domainMode) Ingest() wire.Ingest { return wire.DomainIngest(p.d, p.enc) }

// ValidateRead checks a query against the catalogue and a hashed sums
// request against the full encoding: two deployments hashing
// differently must never merge bucket counters.
func (p *domainMode) ValidateRead(m wire.Msg) error {
	if m.Type == wire.MsgDomainQuery {
		return wire.ValidateDomainQuery(p.d, p.enc, m)
	}
	if m.Type == wire.MsgHashedDomainSums && (int(m.Item) != p.enc.M || int(m.K) != p.enc.G || m.Seed != p.enc.Seed) {
		return fmt.Errorf("hashed sums request for m=%d g=%d seed=%d, this node encodes m=%d g=%d under a different seed",
			m.Item, m.K, m.Seed, p.enc.M, p.enc.G)
	}
	return p.Scope(m).Check(p.d)
}

func (p *domainMode) NewState(shards int) State {
	return p.state(hh.NewDomainServer(p.d, p.m, p.scale, shards))
}

func (p *domainMode) Fold(frames []wire.RawSums) (State, error) {
	total, sc, err := p.merge(frames)
	if err != nil {
		return nil, err
	}
	rows, err := hh.DomainServerOver(p.d, p.m, p.scale, sc.L, sc.R, total)
	if err != nil {
		return nil, err
	}
	return p.state(rows), nil
}

// state is the mode's state over the given counter rows.
func (p *domainMode) state(rows *hh.DomainServer) domainState {
	return domainState{rows, hh.ItemsOver(p.enc, rows)}
}

func (*domainMode) ReadSums(d *wire.Decoder) (wire.RawSums, error)   { return d.ReadDomainSums() }
func (*domainMode) EncodeSums(e *wire.Encoder, f wire.RawSums) error { return e.EncodeDomainSums(f) }

// CheckMeta refuses a directory written under a different domain size
// or, under a hashed encoding, a different catalogue, bucket count,
// encoding or epoch seed — bucket counters under another seed mean
// different items.
func (p *domainMode) CheckMeta(meta persist.Meta) error {
	switch {
	case !p.enc.Hashed():
		if meta.M != p.enc.M {
			return fmt.Errorf("transport: meta domain size %d does not match server's %d", meta.M, p.enc.M)
		}
	case meta.M != p.enc.M:
		return fmt.Errorf("transport: meta catalogue size %d does not match server's %d", meta.M, p.enc.M)
	case meta.G != p.enc.G:
		return fmt.Errorf("transport: meta bucket count %d does not match server's %d", meta.G, p.enc.G)
	case meta.Encoding != p.enc.Name:
		return fmt.Errorf("transport: meta encoding %q does not match server's %q", meta.Encoding, p.enc.Name)
	case meta.HashSeed != p.enc.Seed:
		return fmt.Errorf("transport: meta hash seed %d does not match server's %d", meta.HashSeed, p.enc.Seed)
	}
	return nil
}

// domainState is the domain accumulator: its counter rows, which every
// write, sums export and snapshot goes through, and the encoding's item
// reader over them, which answers the queries.
type domainState struct {
	rows  *hh.DomainServer
	items hh.Items
}

func (s domainState) Apply(shard int, run []wire.Rec) (hellos, reports int64) {
	return applyRun(s.rows.Lock(shard), run)
}

// applyRun is every mode's run loop: the records land through the
// counter matrix's writer, which holds one shard's write lock for the
// run and advances its version once when it ends. A Boolean record's
// Item is 0, its one row.
func applyRun(w protocol.DomainWriter, run []wire.Rec) (hellos, reports int64) {
	defer w.Unlock()
	for i := range run {
		r := &run[i]
		if r.Bit == 0 {
			w.Register(int(r.Item), int(r.Order))
			hellos++
		} else {
			w.Ingest(int(r.Item), protocol.Report{User: r.User, Order: int(r.Order), J: int(r.J), Bit: r.Bit})
		}
	}
	return hellos, int64(len(run)) - hellos
}

func (s domainState) Answer(m wire.Msg, e *wire.Encoder, sc *AnswerScratch) (memo, hit bool, err error) {
	if m.Type != wire.MsgDomainQuery {
		return false, false, encodeLiveDomainSums(e, s.rows, wire.Scope{L: m.L, R: m.R})
	}
	if hit, err = AnswerDomainQueryInto(s.items, m, &sc.frame, &sc.topK); err != nil {
		return false, false, err
	}
	// Top-k goes through a version-keyed memo; point-item does too when
	// a decoder stands over the rows (a hashed encoding), while the
	// exact rows answer it from the counters.
	memo = m.Kind == wire.QueryTopK || m.Kind == wire.QueryPointItem && s.items != hh.Items(s.rows)
	return memo, hit, e.EncodeDomainAnswer(sc.frame)
}

func (s domainState) Sums(sc wire.Scope) wire.RawSums {
	return s.sums(sc, func(cols []int, dst []int64) { s.rows.FoldRowsInto(0, s.rows.M(), cols, dst) })
}

func (s domainState) ShardSums(shard int, sc wire.Scope) wire.RawSums {
	return s.sums(sc, func(cols []int, dst []int64) { s.rows.FoldShardInto(shard, 0, s.rows.M(), cols, dst) })
}

// sums is a raw-sums export under a scope whose counters fold fills.
func (s domainState) sums(sc wire.Scope, fold func(cols []int, dst []int64)) wire.RawSums {
	f := wire.RawSums{D: s.rows.D(), M: s.rows.M(), Scale: s.rows.BoolScale(), Scope: sc}
	f.Counters = make([]int64, f.M*protocol.ScopedStride(f.D, sc.L, sc.R))
	fold(s.rows.Columns(sc.L, sc.R), f.Counters)
	return f
}

func (s domainState) MarshalState() []byte                   { return s.rows.MarshalState() }
func (s domainState) RestoreState(b []byte) error            { return s.rows.RestoreState(b) }
func (s domainState) MarshalShard(shard int) []byte          { return s.rows.MarshalShard(shard) }
func (s domainState) ReplaceShard(shard int, b []byte) error { return s.rows.ReplaceShard(shard, b) }
func (s domainState) Users() int                             { return s.rows.Users() }
func (s domainState) Resident() (int, int64)                 { return s.rows.Resident() }

// ---------------------------------------------------------------------------
// Gathered sums.

// Gathered is a completed gather: the raw-sums frames a gateway read
// from its backends folded into one read-only state, which answers every
// read frame of the mode — a raw-sums request included, so fronts
// stack. Because the fold adds exact integers and the estimator is a
// fixed linear function of them, the answer is bit-for-bit a serial
// server's. Immutable once built, so any number of connections may
// share one; the folded state's memos, filled under their own locks by
// the first read that needs them, serve every later one. Frames
// gathered under a scope fold into a state that holds only that scope's
// columns, and answers only the reads it covers.
type Gathered struct {
	st    State
	mode  Mode
	scope wire.Scope
}

// NewGathered folds gathered frames, given in a fixed order (per
// backend, per virtual shard). It takes the frames over: see Mode.Fold.
func NewGathered(mode Mode, frames []wire.RawSums) (*Gathered, error) {
	var scope wire.Scope
	if len(frames) > 0 {
		scope = frames[0].Scope
	}
	st, err := mode.Fold(frames)
	if err != nil {
		return nil, err
	}
	return &Gathered{st, mode, scope}, nil
}

// Scope returns the scope the frames were gathered under.
func (g *Gathered) Scope() wire.Scope { return g.scope }

// Answer implements Reader. The folded state's memo is private to this
// gather, so it never reports as a cache.
func (g *Gathered) Answer(m wire.Msg, e *wire.Encoder, sc *AnswerScratch) (memo, hit bool, err error) {
	if want := g.mode.Scope(m); !g.scope.Covers(want) {
		return false, false, fmt.Errorf("transport: sums gathered for scope %v cannot answer a read over %v", g.scope, want)
	}
	_, _, err = g.st.Answer(m, e, sc)
	return false, false, err
}
