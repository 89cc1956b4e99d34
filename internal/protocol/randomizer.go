package protocol

import (
	"fmt"

	"rtf/internal/core"
	"rtf/internal/probmath"
)

// RandomizerKind selects the client-side randomizer for the paper's
// framework (Algorithms 1–2).
type RandomizerKind int

// Randomizer kinds.
const (
	FutureRand  RandomizerKind = iota // the paper's randomizer (Section 5)
	Independent                       // Example 4.2: ε/k per coordinate
	Bun                               // Appendix A.2 composition, made online
)

// String returns the kind's experiment-table name.
func (k RandomizerKind) String() string {
	switch k {
	case FutureRand:
		return "futurerand"
	case Independent:
		return "independent"
	case Bun:
		return "bun"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Factories returns the per-order factory table for the kind — the
// client-side half shared by every user (including the one-time exact
// annulus computation). The ldp mechanism registry and the simulation
// engines both build clients from this table.
func (k RandomizerKind) Factories(d, kk int, eps float64) ([]core.Factory, error) {
	switch k {
	case FutureRand:
		return FutureRandFactories(d, kk, eps)
	case Independent:
		return IndependentFactories(d, kk, eps)
	case Bun:
		return BunFactories(d, kk, eps)
	default:
		return nil, fmt.Errorf("protocol: unknown randomizer kind %d", int(k))
	}
}

// Scale returns the kind's estimator scale (Algorithm 2, line 5) without
// building the full factory table: (1+log₂ d)/c_gap with the kind's
// preservation gap at sparsity kk and budget eps.
func (k RandomizerKind) Scale(d, kk int, eps float64) (float64, error) {
	var cgap float64
	switch k {
	case FutureRand:
		p, err := probmath.NewFutureRand(kk, eps)
		if err != nil {
			return 0, err
		}
		cgap = p.CGap
	case Independent:
		// CGapIndependent assumes validated inputs; mirror the factory's
		// parameter checks.
		if kk < 1 {
			return 0, fmt.Errorf("protocol: sparsity bound %d < 1", kk)
		}
		if !(eps > 0) {
			return 0, fmt.Errorf("protocol: epsilon %v must be positive", eps)
		}
		cgap = probmath.CGapIndependent(kk, eps)
	case Bun:
		p, err := probmath.NewBun(kk, eps)
		if err != nil {
			return 0, err
		}
		cgap = p.CGap
	default:
		return 0, fmt.Errorf("protocol: unknown randomizer kind %d", int(k))
	}
	return EstimatorScale(d, cgap), nil
}
