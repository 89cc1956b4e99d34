package protocol

import (
	"encoding/binary"
	"fmt"
	"math"

	"rtf/internal/dyadic"
)

// This file serializes accumulator state for the persistence subsystem:
// a compact, versioned binary encoding of the dyadic-accumulator
// counters (per-interval bit sums, registered users, per-order counts)
// shared by Server and Sharded, plus the per-period state of the
// naive-split baseline server. Checksums and file framing live one
// layer up, in internal/persist; this encoding is the snapshot payload.

// State-payload kind and version bytes. The kind byte keeps a dyadic
// payload from being restored into a per-period server or vice versa.
const (
	stateVersion     = 1
	stateKindDyadic  = 1
	stateKindPeriods = 2
	stateKindDomain  = 3
)

// appendDyadicState appends the shared dyadic-accumulator encoding.
func appendDyadicState(b []byte, d int, scale float64, users int64, perOrder, sums []int64) []byte {
	b = append(b, stateVersion, stateKindDyadic)
	b = binary.AppendUvarint(b, uint64(d))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scale))
	b = binary.AppendVarint(b, users)
	b = binary.AppendUvarint(b, uint64(len(perOrder)))
	for _, v := range perOrder {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(sums)))
	for _, v := range sums {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// dyadicState is the decoded form of appendDyadicState.
type dyadicState struct {
	d        int
	scale    float64
	users    int64
	perOrder []int64
	sums     []int64
}

// decodeDyadicState parses and validates the shared encoding against
// the restoring accumulator's configuration.
func decodeDyadicState(b []byte, wantD int, wantScale float64) (*dyadicState, error) {
	r := stateReader{b: b}
	if v := r.byte("version"); r.err == nil && v != stateVersion {
		return nil, fmt.Errorf("protocol: unsupported state version %d (this build reads version %d)", v, stateVersion)
	}
	if k := r.byte("kind"); r.err == nil && k != stateKindDyadic {
		return nil, fmt.Errorf("protocol: state kind %d is not a dyadic accumulator", k)
	}
	st := &dyadicState{}
	st.d = int(r.uvarint("d"))
	// Validate the horizon against the restoring accumulator BEFORE
	// parsing the arrays: the array bounds below derive from d, and a
	// crafted payload must not be able to provoke a huge allocation by
	// declaring an enormous horizon.
	if r.err == nil && st.d != wantD {
		return nil, fmt.Errorf("protocol: state has horizon d=%d, accumulator has d=%d", st.d, wantD)
	}
	st.scale = math.Float64frombits(r.u64("scale"))
	if r.err == nil && st.scale != wantScale {
		return nil, fmt.Errorf("protocol: state has estimator scale %v, accumulator has %v", st.scale, wantScale)
	}
	st.users = r.varint("users")
	st.perOrder = r.varints("per-order counts", dyadic.NumOrders(wantD))
	st.sums = r.varints("interval sums", dyadic.TotalIntervals(wantD))
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("protocol: %d trailing bytes after accumulator state", len(b)-r.off)
	}
	if want := dyadic.NumOrders(wantD); len(st.perOrder) != want {
		return nil, fmt.Errorf("protocol: state has %d per-order counts, want %d", len(st.perOrder), want)
	}
	if want := dyadic.TotalIntervals(wantD); len(st.sums) != want {
		return nil, fmt.Errorf("protocol: state has %d interval sums, want %d", len(st.sums), want)
	}
	if st.users < 0 {
		return nil, fmt.Errorf("protocol: state has negative user count %d", st.users)
	}
	for h, c := range st.perOrder {
		if c < 0 {
			return nil, fmt.Errorf("protocol: state has negative count %d at order %d", c, h)
		}
	}
	return st, nil
}

// MarshalState serializes the server's accumulated state (counters,
// user counts) for a snapshot. The horizon and scale travel with the
// state so RestoreState can refuse a mismatched configuration.
func (s *Server) MarshalState() []byte {
	perOrder := make([]int64, len(s.perOrder))
	for h, c := range s.perOrder {
		perOrder[h] = int64(c)
	}
	return appendDyadicState(make([]byte, 0, 16+10*len(s.sums)), s.d, s.scale, int64(s.users), perOrder, s.sums)
}

// RestoreState folds serialized state into the server — call it on a
// freshly constructed server to reload a snapshot, exactly like Merge
// folds another live server. It fails, without modifying the server, on
// version or configuration mismatches and malformed input.
func (s *Server) RestoreState(b []byte) error {
	st, err := decodeDyadicState(b, s.d, s.scale)
	if err != nil {
		return err
	}
	for i, v := range st.sums {
		s.sums[i] += v
	}
	s.users += int(st.users)
	for h, c := range st.perOrder {
		s.perOrder[h] += int(c)
	}
	return nil
}

// MarshalState serializes the naive-split server's per-period sums and
// user count. The horizon and the c_gap constant travel along so
// RestoreState can refuse a mismatched configuration (c_gap pins the
// per-report budget ε/d).
func (s *NaiveSplitServer) MarshalState() []byte {
	b := make([]byte, 0, 16+10*len(s.sums))
	b = append(b, stateVersion, stateKindPeriods)
	b = binary.AppendUvarint(b, uint64(s.d))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.cgap))
	b = binary.AppendVarint(b, int64(s.users))
	b = binary.AppendUvarint(b, uint64(len(s.sums)))
	for _, v := range s.sums {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// RestoreState folds serialized state into the server — call it on a
// freshly constructed server to reload a snapshot.
func (s *NaiveSplitServer) RestoreState(b []byte) error {
	r := stateReader{b: b}
	if v := r.byte("version"); r.err == nil && v != stateVersion {
		return fmt.Errorf("protocol: unsupported state version %d (this build reads version %d)", v, stateVersion)
	}
	if k := r.byte("kind"); r.err == nil && k != stateKindPeriods {
		return fmt.Errorf("protocol: state kind %d is not a per-period server", k)
	}
	d := int(r.uvarint("d"))
	// As in decodeDyadicState: pin the horizon before any d-derived
	// array bound, so a crafted payload cannot provoke a huge
	// allocation.
	if r.err == nil && d != s.d {
		return fmt.Errorf("protocol: state has horizon d=%d, server has d=%d", d, s.d)
	}
	cgap := math.Float64frombits(r.u64("c_gap"))
	if r.err == nil && cgap != s.cgap {
		return fmt.Errorf("protocol: state has c_gap %v, server has %v", cgap, s.cgap)
	}
	users := r.varint("users")
	sums := r.varints("per-period sums", s.d)
	if r.err != nil {
		return r.err
	}
	if r.off != len(b) {
		return fmt.Errorf("protocol: %d trailing bytes after per-period state", len(b)-r.off)
	}
	if len(sums) != s.d {
		return fmt.Errorf("protocol: state has %d per-period sums, want %d", len(sums), s.d)
	}
	if users < 0 {
		return fmt.Errorf("protocol: state has negative user count %d", users)
	}
	for t, v := range sums {
		s.sums[t] += v
	}
	s.users += int(users)
	return nil
}

// maxDomainItemState bounds one item's declared payload length inside a
// domain state, so corrupt input cannot force a huge allocation before
// the per-item decoder validates anything.
const maxDomainItemState = 1 << 26

// readDomainHeader checks a kind-3 payload's version, kind and item
// count against m and returns a reader positioned at the first item.
func readDomainHeader(b []byte, m int) (*stateReader, error) {
	r := &stateReader{b: b}
	if v := r.byte("version"); r.err == nil && v != stateVersion {
		return nil, fmt.Errorf("protocol: unsupported state version %d (this build reads version %d)", v, stateVersion)
	}
	if k := r.byte("kind"); r.err == nil && k != stateKindDomain {
		return nil, fmt.Errorf("protocol: state kind %d is not a domain accumulator set", k)
	}
	n := r.uvarint("item count")
	if r.err != nil {
		return nil, r.err
	}
	if n != uint64(m) {
		return nil, fmt.Errorf("protocol: state has %d items, accumulator has %d", n, m)
	}
	return r, nil
}

// item returns item x's length-prefixed payload.
func (r *stateReader) item(x int) ([]byte, error) {
	n := r.uvarint("item payload length")
	if r.err != nil {
		return nil, r.err
	}
	if n > maxDomainItemState {
		return nil, fmt.Errorf("protocol: item %d state of %d bytes exceeds limit %d", x, n, maxDomainItemState)
	}
	if r.off+int(n) > len(r.b) {
		return nil, fmt.Errorf("protocol: state truncated inside item %d", x)
	}
	r.off += int(n)
	return r.b[r.off-int(n) : r.off], nil
}

// end refuses bytes left over after a domain payload's last item.
func (r *stateReader) end() error {
	if r.off != len(r.b) {
		return fmt.Errorf("protocol: %d trailing bytes after domain state", len(r.b)-r.off)
	}
	return nil
}

// stateReader walks a state buffer, recording the first decode error
// instead of panicking on short input.
type stateReader struct {
	b   []byte
	off int
	err error
}

func (r *stateReader) fail(field string) {
	if r.err == nil {
		r.err = fmt.Errorf("protocol: state truncated at %s", field)
	}
}

func (r *stateReader) byte(field string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(field)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *stateReader) uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(field)
		return 0
	}
	r.off += n
	return v
}

func (r *stateReader) varint(field string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(field)
		return 0
	}
	r.off += n
	return v
}

func (r *stateReader) u64(field string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(field)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// varints reads a uvarint-counted list of varints, bounding the
// declared length so corrupt input cannot force a huge allocation.
func (r *stateReader) varints(field string, limit int) []int64 {
	n := r.uvarint(field)
	if r.err != nil {
		return nil
	}
	if limit < 1 {
		limit = 1
	}
	if n > uint64(limit) {
		r.err = fmt.Errorf("protocol: state declares %d %s, over the %d limit", n, field, limit)
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.varint(field)
		if r.err != nil {
			return nil
		}
	}
	return out
}
