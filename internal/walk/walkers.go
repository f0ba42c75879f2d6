package walk

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// Walker is a Markov chain over a Space. Step advances one transition;
// lazy chains (MH, MD, GMD) may remain at the current state, and that
// self-transition counts as a step — exactly how the estimators must treat
// it for the stationary-distribution arguments to hold.
type Walker[N comparable] interface {
	// Current returns the walker's current state.
	Current() N
	// Step advances the chain one transition and returns the new state.
	Step() (N, error)
	// StationaryWeight returns the chain's stationary probability of state n
	// up to a chain-wide normalizing constant. Estimators divide by it.
	StationaryWeight(n N) (float64, error)
}

// BurninCtx advances w for steps transitions, discarding the visited
// states: the paper discards everything before the measured mixing time.
// It aborts (returning ctx.Err()) at the first step after ctx is done, so a
// fleet can tear down every walker the moment one fails or the caller gives
// up. Each step polls the Done channel, read once: ctx.Err() on a
// cancelable context takes its mutex, which a fleet's walkers share.
func BurninCtx[N comparable](ctx context.Context, w Walker[N], steps int) error {
	done := ctx.Done()
	for i := 0; i < steps; i++ {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if _, err := w.Step(); err != nil {
			return fmt.Errorf("walk: burn-in step %d: %w", i, err)
		}
	}
	return nil
}

// Simple is the simple random walk: move to a uniformly random neighbor.
// Stationary distribution ∝ degree.
type Simple[N comparable] struct {
	sp  Space[N]
	cur N
	rng *rand.Rand
}

// NewSimple starts a simple random walk at start.
func NewSimple[N comparable](sp Space[N], start N, rng *rand.Rand) *Simple[N] {
	return &Simple[N]{sp: sp, cur: start, rng: rng}
}

// Current implements Walker.
func (w *Simple[N]) Current() N { return w.cur }

// Step implements Walker.
func (w *Simple[N]) Step() (N, error) {
	v, _, err := randomNeighbor(w.sp, w.cur, w.rng)
	if err != nil {
		return w.cur, err
	}
	w.cur = v
	return v, nil
}

// StationaryWeight implements Walker: π(u) ∝ d(u).
func (w *Simple[N]) StationaryWeight(n N) (float64, error) {
	d, err := w.sp.Degree(n)
	if err != nil {
		return 0, err
	}
	return float64(d), nil
}

// NonBacktracking is the non-backtracking random walk of Lee et al. [14]:
// a uniform neighbor excluding the previously visited state when possible.
// Its stationary node distribution is still ∝ degree, with lower asymptotic
// variance. Provided as the extension the related-work section points at.
type NonBacktracking[N comparable] struct {
	sp      Space[N]
	cur     N
	prev    N
	hasPrev bool
	rng     *rand.Rand
}

// NewNonBacktracking starts a non-backtracking walk at start.
func NewNonBacktracking[N comparable](sp Space[N], start N, rng *rand.Rand) *NonBacktracking[N] {
	return &NonBacktracking[N]{sp: sp, cur: start, rng: rng}
}

// Current implements Walker.
func (w *NonBacktracking[N]) Current() N { return w.cur }

// Step implements Walker.
func (w *NonBacktracking[N]) Step() (N, error) {
	d, err := w.sp.Degree(w.cur)
	if err != nil {
		return w.cur, err
	}
	if d == 0 {
		return w.cur, fmt.Errorf("walk: state %v has no neighbors", w.cur)
	}
	var next N
	if d == 1 || !w.hasPrev {
		next, err = w.sp.Neighbor(w.cur, w.rng.Intn(d))
		if err != nil {
			return w.cur, err
		}
	} else {
		// Rejection-sample a neighbor different from prev: at most d
		// candidates, one equals prev, so expected retries < 2.
		for {
			next, err = w.sp.Neighbor(w.cur, w.rng.Intn(d))
			if err != nil {
				return w.cur, err
			}
			if next != w.prev {
				break
			}
		}
	}
	w.prev, w.hasPrev = w.cur, true
	w.cur = next
	return next, nil
}

// StationaryWeight implements Walker: node occupancy remains ∝ degree.
func (w *NonBacktracking[N]) StationaryWeight(n N) (float64, error) {
	d, err := w.sp.Degree(n)
	if err != nil {
		return 0, err
	}
	return float64(d), nil
}

// MetropolisHastings targets the uniform distribution: propose a uniform
// neighbor v, accept with min(1, d(u)/d(v)), else stay.
type MetropolisHastings[N comparable] struct {
	sp  Space[N]
	cur N
	rng *rand.Rand
}

// NewMetropolisHastings starts an MH walk at start.
func NewMetropolisHastings[N comparable](sp Space[N], start N, rng *rand.Rand) *MetropolisHastings[N] {
	return &MetropolisHastings[N]{sp: sp, cur: start, rng: rng}
}

// Current implements Walker.
func (w *MetropolisHastings[N]) Current() N { return w.cur }

// Step implements Walker.
func (w *MetropolisHastings[N]) Step() (N, error) {
	v, du, err := randomNeighbor(w.sp, w.cur, w.rng)
	if err != nil {
		return w.cur, err
	}
	dv, err := w.sp.Degree(v)
	if err != nil {
		return w.cur, err
	}
	if dv <= du || w.rng.Float64() < float64(du)/float64(dv) {
		w.cur = v
	}
	return w.cur, nil
}

// StationaryWeight implements Walker: uniform.
func (w *MetropolisHastings[N]) StationaryWeight(N) (float64, error) { return 1, nil }

// MaxDegree is the maximum-degree random walk: with probability d(u)/D move
// to a uniform neighbor, otherwise stay, where D is an upper bound on the
// maximum degree. Stationary distribution is uniform.
type MaxDegree[N comparable] struct {
	sp  Space[N]
	cur N
	d   float64
	rng *rand.Rand
}

// NewMaxDegree starts an MD walk at start. maxDegree must upper-bound every
// degree in the space.
func NewMaxDegree[N comparable](sp Space[N], start N, maxDegree int, rng *rand.Rand) (*MaxDegree[N], error) {
	if maxDegree <= 0 {
		return nil, fmt.Errorf("walk: max degree must be positive, got %d", maxDegree)
	}
	return &MaxDegree[N]{sp: sp, cur: start, d: float64(maxDegree), rng: rng}, nil
}

// Current implements Walker.
func (w *MaxDegree[N]) Current() N { return w.cur }

// Step implements Walker.
func (w *MaxDegree[N]) Step() (N, error) {
	d, err := w.sp.Degree(w.cur)
	if err != nil {
		return w.cur, err
	}
	if w.rng.Float64() < float64(d)/w.d {
		v, err := w.sp.Neighbor(w.cur, w.rng.Intn(d))
		if err != nil {
			return w.cur, err
		}
		w.cur = v
	}
	return w.cur, nil
}

// StationaryWeight implements Walker: uniform.
func (w *MaxDegree[N]) StationaryWeight(N) (float64, error) { return 1, nil }

// RejectionControlledMH is the RCMH walk of Li et al. [16] with control
// parameter alpha in [0, 1]: accept a proposed neighbor v with
// min(1, (d(u)/d(v))^alpha). alpha = 0 is the simple walk, alpha = 1 is MH.
// Stationary distribution ∝ d(u)^(1-alpha).
type RejectionControlledMH[N comparable] struct {
	sp    Space[N]
	cur   N
	alpha float64
	rng   *rand.Rand
}

// NewRejectionControlledMH starts an RCMH walk at start with the given alpha.
func NewRejectionControlledMH[N comparable](sp Space[N], start N, alpha float64, rng *rand.Rand) (*RejectionControlledMH[N], error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("walk: RCMH alpha must be in [0,1], got %g", alpha)
	}
	return &RejectionControlledMH[N]{sp: sp, cur: start, alpha: alpha, rng: rng}, nil
}

// Current implements Walker.
func (w *RejectionControlledMH[N]) Current() N { return w.cur }

// Step implements Walker.
func (w *RejectionControlledMH[N]) Step() (N, error) {
	v, du, err := randomNeighbor(w.sp, w.cur, w.rng)
	if err != nil {
		return w.cur, err
	}
	dv, err := w.sp.Degree(v)
	if err != nil {
		return w.cur, err
	}
	accept := math.Pow(float64(du)/float64(dv), w.alpha)
	if accept >= 1 || w.rng.Float64() < accept {
		w.cur = v
	}
	return w.cur, nil
}

// StationaryWeight implements Walker: π(u) ∝ d(u)^(1-alpha).
func (w *RejectionControlledMH[N]) StationaryWeight(n N) (float64, error) {
	d, err := w.sp.Degree(n)
	if err != nil {
		return 0, err
	}
	return math.Pow(float64(d), 1-w.alpha), nil
}

// GeneralMaxDegree is the GMD walk of Li et al. [16] with control parameter
// delta in (0, 1]: like MaxDegree but with the constant C = delta·D, so
// self-loops are rarer at the price of a non-uniform stationary distribution
// π(u) ∝ max(C, d(u)).
type GeneralMaxDegree[N comparable] struct {
	sp  Space[N]
	cur N
	c   float64
	rng *rand.Rand
}

// NewGeneralMaxDegree starts a GMD walk at start. maxDegree bounds the space
// degrees; delta scales it down per the Li et al. recommendation
// (delta in [0.3, 0.7]).
func NewGeneralMaxDegree[N comparable](sp Space[N], start N, maxDegree int, delta float64, rng *rand.Rand) (*GeneralMaxDegree[N], error) {
	if maxDegree <= 0 {
		return nil, fmt.Errorf("walk: max degree must be positive, got %d", maxDegree)
	}
	if delta <= 0 || delta > 1 {
		return nil, fmt.Errorf("walk: GMD delta must be in (0,1], got %g", delta)
	}
	return &GeneralMaxDegree[N]{sp: sp, cur: start, c: delta * float64(maxDegree), rng: rng}, nil
}

// Current implements Walker.
func (w *GeneralMaxDegree[N]) Current() N { return w.cur }

// Step implements Walker.
func (w *GeneralMaxDegree[N]) Step() (N, error) {
	d, err := w.sp.Degree(w.cur)
	if err != nil {
		return w.cur, err
	}
	denom := w.c
	if float64(d) > denom {
		denom = float64(d)
	}
	if w.rng.Float64() < float64(d)/denom {
		v, err := w.sp.Neighbor(w.cur, w.rng.Intn(d))
		if err != nil {
			return w.cur, err
		}
		w.cur = v
	}
	return w.cur, nil
}

// StationaryWeight implements Walker: π(u) ∝ max(C, d(u)).
func (w *GeneralMaxDegree[N]) StationaryWeight(n N) (float64, error) {
	d, err := w.sp.Degree(n)
	if err != nil {
		return 0, err
	}
	if float64(d) > w.c {
		return float64(d), nil
	}
	return w.c, nil
}
