package transport

import (
	"rtf/internal/hh"
	"rtf/internal/wire"
)

// This file exports a live domain server's raw counters; the raw-sums
// frame itself and its merge rules are the byte format's (internal/wire).

// DomainSumsFromServer folds the live counter matrix into a full frame:
// a point-in-time cut at run granularity. Fence ingestion first (a query
// round-trip on the same connection) when the cut must hold that
// connection's writes.
func DomainSumsFromServer(ds *hh.DomainServer) wire.RawSums {
	return domainState{rows: ds}.Sums(wire.Scope{})
}

// encodeLiveDomainSums writes a domain server's MsgDomainSumsFrame under
// scope sc straight from its live counters, a row at a time — the bytes
// of EncodeDomainSums(domainState{ds}.Sums(sc)) without the matrix in
// between, which for full rows of a wide domain is megabytes per request.
// Each row is folded under its own acquisition of the read locks and
// none is held while the frame is written, so the rows are each a cut
// but the frame is not one: the one read that is not a point-in-time
// cut. Fence ingestion first when exactness matters.
func encodeLiveDomainSums(e *wire.Encoder, ds *hh.DomainServer, sc wire.Scope) error {
	cols := ds.Columns(sc.L, sc.R)
	return e.EncodeDomainSumsFunc(wire.RawSums{D: ds.D(), M: ds.M(), Scale: ds.BoolScale(), Scope: sc},
		func(x int, row []int64) { ds.FoldRowsInto(x, x+1, cols, row) })
}
