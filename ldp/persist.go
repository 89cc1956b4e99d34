package ldp

import "fmt"

// Snapshotter is the optional ServerEngine capability behind the
// persistence subsystem: a mechanism whose accumulated server state can
// be serialized into an opaque snapshot payload. Every built-in
// mechanism's engine implements it (and Restorer); the Server methods
// below check for it at run time.
type Snapshotter interface {
	// MarshalState serializes the engine's accumulated state. The
	// payload is versioned and self-validating: restoring it into an
	// engine with different parameters fails rather than mis-scaling.
	MarshalState() ([]byte, error)
}

// Restorer is the inverse capability: an engine that can reload a
// payload produced by the same mechanism's Snapshotter.
type Restorer interface {
	// RestoreState folds a serialized snapshot into the engine — call
	// it on a freshly constructed engine. It fails, without modifying
	// the engine, on version or configuration mismatches and on
	// malformed input; it never panics.
	RestoreState(state []byte) error
}

// MarshalState serializes the server's accumulated state for a durable
// snapshot, when the mechanism's engine is a Snapshotter.
func (s *Server) MarshalState() ([]byte, error) {
	eng, ok := s.eng.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("ldp: mechanism %q does not support state snapshots", s.mech)
	}
	return eng.MarshalState()
}

// RestoreState reloads state produced by MarshalState on a server built
// with the same mechanism and parameters. Call it on a fresh server;
// restoring is equivalent to replaying the original ingestion, so
// estimates afterwards are bit-for-bit those of the snapshotted server.
func (s *Server) RestoreState(state []byte) error {
	eng, ok := s.eng.(Restorer)
	if !ok {
		return fmt.Errorf("ldp: mechanism %q does not support state snapshots", s.mech)
	}
	return eng.RestoreState(state)
}
