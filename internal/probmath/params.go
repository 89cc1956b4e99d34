package probmath

import (
	"errors"
	"fmt"
	"math"
)

// MaxVerifiedK is the largest sparsity bound k at which the privacy of
// R̃ is verified by exact computation: rtf-privcheck checks every k in
// [1..MaxVerifiedK] by default, and the serving fronts and the ldp
// constructors refuse a larger k (CheckVerifiedK), so nothing is served
// or sampled at a k no check has covered.
const MaxVerifiedK = 1024

// CheckVerifiedK refuses a sparsity bound above MaxVerifiedK, in the one
// wording the fronts (prefixed "-", naming the flag) and the ldp
// constructors give.
func CheckVerifiedK(k int) error {
	if k > MaxVerifiedK {
		return fmt.Errorf("k %d exceeds %d, the largest k whose randomizer privacy rtf-privcheck verifies", k, MaxVerifiedK)
	}
	return nil
}

// Params bundles an annulus with the protocol-level parameters that
// produced it. It is the single source of truth shared by the sampler
// (internal/core), the server's estimator scaling, and the verifier.
type Params struct {
	*Annulus

	Eps      float64 // protocol privacy budget ε
	EpsTilde float64 // per-coordinate budget ε̃ of the basic randomizer

	// Real-valued bounds before integer clamping, kept for reporting and
	// for checking the paper's geometric identities (Eq 15, 21, 36).
	LBReal, UBReal float64

	// Lambda is the auxiliary parameter of the Bun et al. construction
	// (Appendix A.2); zero for the paper's own construction.
	Lambda float64
}

// validate rejects parameter ranges outside the paper's assumptions.
func validate(k int, eps float64) error {
	if k < 1 {
		return errors.New("probmath: k must be >= 1")
	}
	if !(eps > 0) || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("probmath: epsilon %v must be positive and finite", eps)
	}
	if eps > 1 {
		return fmt.Errorf("probmath: epsilon %v > 1 violates the paper's assumption (Theorem 4.1)", eps)
	}
	return nil
}

// NewFutureRand builds the paper's annulus (Section 5.2, Eq 15):
//
//	ε̃  = ε / (5√k)
//	p  = 1/(e^ε̃ + 1)
//	LB = k·p − 2√k
//	UB = (k/ε̃) · ln( 2e^ε̃ / (e^ε̃+1) )     (so that g(UB) = 2^−k)
//
// clamped to integers ⌈LB⌉..⌊UB⌋ within [0..k].
func NewFutureRand(k int, eps float64) (*Params, error) {
	if err := validate(k, eps); err != nil {
		return nil, err
	}
	sk := math.Sqrt(float64(k))
	et := eps / (5 * sk)
	p := 1 / (math.Exp(et) + 1)
	lbReal := float64(k)*p - 2*sk
	// ln(2e^ε̃/(e^ε̃+1)) computed stably as ln 2 + ε̃ − ln(e^ε̃+1)
	//                                    = ln 2 + ε̃ + ln p.
	ubReal := float64(k) / et * (math.Ln2 + et + math.Log(p))
	ann, err := NewAnnulus(k, p, int(math.Ceil(lbReal)), int(math.Floor(ubReal)))
	if err != nil {
		return nil, fmt.Errorf("probmath: FutureRand annulus (k=%d, eps=%v): %w", k, eps, err)
	}
	return &Params{
		Annulus:  ann,
		Eps:      eps,
		EpsTilde: et,
		LBReal:   lbReal,
		UBReal:   ubReal,
	}, nil
}

// NewBun builds the composed randomizer of Bun, Nelson and Stemmer as
// described in Appendix A.2 (Algorithm 4): a symmetric annulus
//
//	LB, UB = k·p ∓ sqrt( (k/2)·ln(2/λ) )
//
// with λ chosen to satisfy the constraints of Fact A.6:
//
//	0 < λ < ( ε̃√k / (2(k+1)) )^{2/3}   and   ε = 6ε̃·sqrt(k·ln(1/λ)).
//
// λ has no closed form; we solve the coupled constraints by fixed-point
// iteration on λ ↦ ½·( ε / (12(k+1)·sqrt(ln(1/λ))) )^{2/3}, which keeps a
// factor-2 safety margin inside the strict inequality. The resulting
// c_gap matches Theorem A.8's O(ε/√(k·ln(k/ε)) + (ε/(k·ln(k/ε)))^{2/3}).
func NewBun(k int, eps float64) (*Params, error) {
	if err := validate(k, eps); err != nil {
		return nil, err
	}
	lambda := 1e-3
	for iter := 0; iter < 64; iter++ {
		f := math.Pow(eps/(12*float64(k+1)*math.Sqrt(math.Log(1/lambda))), 2.0/3.0)
		next := f / 2
		if math.Abs(next-lambda) <= 1e-15*lambda {
			lambda = next
			break
		}
		lambda = next
	}
	if !(lambda > 0 && lambda < 1) {
		return nil, fmt.Errorf("probmath: Bun lambda solver diverged (k=%d, eps=%v)", k, eps)
	}
	et := eps / (6 * math.Sqrt(float64(k)*math.Log(1/lambda)))
	p := 1 / (math.Exp(et) + 1)
	w := math.Sqrt(float64(k) / 2 * math.Log(2/lambda))
	lbReal := float64(k)*p - w
	ubReal := float64(k)*p + w
	ann, err := NewAnnulus(k, p, int(math.Ceil(lbReal)), int(math.Floor(ubReal)))
	if err != nil {
		return nil, fmt.Errorf("probmath: Bun annulus (k=%d, eps=%v): %w", k, eps, err)
	}
	return &Params{
		Annulus:  ann,
		Eps:      eps,
		EpsTilde: et,
		LBReal:   lbReal,
		UBReal:   ubReal,
		Lambda:   lambda,
	}, nil
}

// CGapBasic returns the preservation gap of the basic randomizer R with
// per-report budget epsTilde: (e^ε̃ − 1)/(e^ε̃ + 1).
func CGapBasic(epsTilde float64) float64 {
	e := math.Exp(epsTilde)
	return (e - 1) / (e + 1)
}

// CGapIndependent returns the preservation gap of the Example 4.2
// randomizer, which spends ε/k per non-zero coordinate independently.
func CGapIndependent(k int, eps float64) float64 {
	return CGapBasic(eps / float64(k))
}

// HoeffdingErrorBound returns the high-probability ℓ∞ error bound of
// Lemma 4.6 / Eq 13 for a single time period at failure probability beta:
//
//	(1 + log₂ d) · c_gap⁻¹ · sqrt( 2n · ln(2/beta) ).
//
// Union-bounding over all d periods is done by the caller via beta/d.
func HoeffdingErrorBound(n, d int, cGap, beta float64) float64 {
	logd := math.Log2(float64(d))
	return (1 + logd) / cGap * math.Sqrt(2*float64(n)*math.Log(2/beta))
}
