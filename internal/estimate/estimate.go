// Package estimate implements the three estimator families the paper builds
// on: Hansen–Hurwitz [10] for with-replacement unequal-probability samples,
// Horvitz–Thompson [12] over distinct sampled units with inclusion
// probabilities, and the Re-weighted (importance sampling) ratio estimator
// [17]. The accumulators are streaming: algorithms feed them one sample at a
// time during the walk and read the estimate at the end, so no sample buffer
// is retained.
package estimate

import (
	"fmt"
	"math"
)

// HansenHurwitz accumulates the estimator (1/k) Σ y_i / p_i, where p_i is
// the probability of drawing sample i. It is unbiased for Σ_units y(unit)
// when samples are drawn with replacement with probability p(unit).
type HansenHurwitz struct {
	sum float64
	n   int
}

// Add records one draw with observed value y drawn with probability p > 0.
func (h *HansenHurwitz) Add(y, p float64) error {
	if p <= 0 {
		return fmt.Errorf("estimate: Hansen-Hurwitz draw probability must be positive, got %g", p)
	}
	h.sum += y / p
	h.n++
	return nil
}

// AddUnit records one draw with probability 1 — bit-identical to Add(y, 1)
// (IEEE division by 1 is exact) without the division, for hot replay loops.
func (h *HansenHurwitz) AddUnit(y float64) {
	h.sum += y
	h.n++
}

// N returns the number of draws recorded.
func (h *HansenHurwitz) N() int { return h.n }

// Estimate returns the current estimate, or NaN before any draw.
func (h *HansenHurwitz) Estimate() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// HorvitzThompson accumulates Σ_{distinct sampled units} y(unit) / Pr(unit),
// where Pr(unit) is the probability the unit enters the sample at least
// once. Each distinct unit contributes once regardless of how many times it
// is drawn — the H(e ∈ S) indicator of Eqs. (3) and (13).
// The zero value is ready to use. Callers that have already deduplicated
// their sample stream (a replay over a fixed trajectory knows, per step,
// whether the unit is new) can feed AddFirst instead of Add and skip the
// map entirely; the two entry points must not be mixed on one accumulator.
type HorvitzThompson[K comparable] struct {
	seen     map[K]struct{}
	distinct int
	sum      float64
}

// NewHorvitzThompson returns an empty HT accumulator over unit keys K.
func NewHorvitzThompson[K comparable]() *HorvitzThompson[K] {
	return &HorvitzThompson[K]{}
}

// Add records that unit was sampled, with value y and inclusion probability
// incl in (0, 1]. Re-adding a unit is a no-op.
func (h *HorvitzThompson[K]) Add(unit K, y, incl float64) error {
	if incl <= 0 || incl > 1 {
		return fmt.Errorf("estimate: Horvitz-Thompson inclusion probability must be in (0,1], got %g", incl)
	}
	if _, dup := h.seen[unit]; dup {
		return nil
	}
	if h.seen == nil {
		h.seen = make(map[K]struct{})
	}
	h.seen[unit] = struct{}{}
	h.distinct++
	h.sum += y / incl
	return nil
}

// AddFirst records a unit the caller already knows is distinct (its first
// occurrence in a pre-indexed sample stream), with value y and inclusion
// probability incl in (0, 1]. It accumulates exactly what Add would on a
// first sighting, without the dedup map.
func (h *HorvitzThompson[K]) AddFirst(y, incl float64) error {
	if incl <= 0 || incl > 1 {
		return fmt.Errorf("estimate: Horvitz-Thompson inclusion probability must be in (0,1], got %g", incl)
	}
	h.distinct++
	h.sum += y / incl
	return nil
}

// Distinct returns the number of distinct units recorded.
func (h *HorvitzThompson[K]) Distinct() int { return h.distinct }

// Estimate returns the accumulated HT estimate (0 when nothing was added —
// an empty sample legitimately estimates 0 for a total).
func (h *HorvitzThompson[K]) Estimate() float64 { return h.sum }

// Reweighted accumulates the importance-sampling ratio estimator
// Σ (y_i / w_i) / Σ (1 / w_i), where w_i is the (unnormalized) trial
// probability of sample i. Multiplying the ratio by the population size
// gives totals such as Eq. (19).
type Reweighted struct {
	num float64
	den float64
	n   int
}

// Add records one draw with observed value y and trial weight w > 0.
func (r *Reweighted) Add(y, w float64) error {
	if w <= 0 {
		return fmt.Errorf("estimate: re-weighted trial weight must be positive, got %g", w)
	}
	r.num += y / w
	r.den += 1 / w
	r.n++
	return nil
}

// AddInv records one draw like Add, with the reciprocal weight supplied by
// the caller (invW must equal 1/w). Replays precompute 1/d(u) once per step
// and share it across every queried pair; the accumulated bits are identical
// because the same quotient is added, just not recomputed per pair.
func (r *Reweighted) AddInv(y, w, invW float64) error {
	if w <= 0 {
		return fmt.Errorf("estimate: re-weighted trial weight must be positive, got %g", w)
	}
	if y != 0 {
		// y/w == +0 when y == 0 here (y, w >= 0), and num only ever sums
		// non-negative terms, so skipping the +0 add changes no bits.
		r.num += y / w
	}
	r.den += invW
	r.n++
	return nil
}

// N returns the number of draws recorded.
func (r *Reweighted) N() int { return r.n }

// Merge folds another accumulator's draws into r — the reduction step when
// per-walker Reweighted accumulators from a multi-walker run are combined
// into one pooled estimate.
func (r *Reweighted) Merge(o *Reweighted) {
	r.num += o.num
	r.den += o.den
	r.n += o.n
}

// Ratio returns Σ(y/w)/Σ(1/w), or NaN before any draw.
func (r *Reweighted) Ratio() float64 {
	if r.den == 0 {
		return math.NaN()
	}
	return r.num / r.den
}

// InclusionProbability returns 1 − (1 − p)^k: the probability that a unit
// with per-iteration draw probability p enters a k-iteration sample at least
// once. For tiny p it switches to the numerically stable expm1 form.
func InclusionProbability(p float64, k int) float64 {
	if p <= 0 || k <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	// 1-(1-p)^k = -expm1(k·log1p(-p))
	return -math.Expm1(float64(k) * math.Log1p(-p))
}

// Approx bundles the (ϵ, δ)-approximation parameters of Appendix A:
// P[(1−ϵ)F < F̂ < (1+ϵ)F] ≥ 1 − δ.
type Approx struct {
	// Eps is the relative error band ϵ, in (0, 1].
	Eps float64
	// Delta is the failure probability δ, in (0, 1).
	Delta float64
}

// Validate checks 0 < ϵ ≤ 1 and 0 < δ < 1.
func (a Approx) Validate() error {
	if a.Eps <= 0 || a.Eps > 1 {
		return fmt.Errorf("estimate: eps must be in (0,1], got %g", a.Eps)
	}
	if a.Delta <= 0 || a.Delta >= 1 {
		return fmt.Errorf("estimate: delta must be in (0,1), got %g", a.Delta)
	}
	return nil
}

// Holds reports whether estimate is within the (ϵ)-band around truth.
func (a Approx) Holds(estimate, truth float64) bool {
	return math.Abs(estimate-truth) <= a.Eps*math.Abs(truth)
}
