// Package sizeest estimates |V| and |E| of a restricted-access graph by
// random walk. The paper assumes both are known a priori and points at
// Katzir, Liberty & Somekh [13] and Hardiman & Katzir [11] for when they
// are not — this package implements that substrate, so the full pipeline
// (estimate sizes, then estimate labeled edge counts) runs against an OSN
// with no prior knowledge at all.
//
// Method. A simple random walk samples nodes with probability ∝ degree.
// Over R retained samples with degrees d_1..d_R:
//
//   - |V|: birthday-paradox collision counting (Katzir et al.). With
//     Ψ1 = Σ 1/d_i, Ψ2 = Σ d_i and C = number of sample pairs that hit the
//     same node, n̂ = Ψ1·Ψ2 / (2C). Degree weighting corrects the walk's
//     bias toward hubs.
//   - |E|: under the stationary law, E[1/d] = |V| / 2|E|, so
//     m̂ = n̂·R / (2·Ψ1).
//
// Pairs closer than a thinning gap along the walk are excluded from the
// collision count (they are trivially correlated), the same r-spacing
// heuristic the paper borrows from [11] for its Horvitz–Thompson variants.
//
// Since the task-registry refactor the walk itself is a core.Trajectory
// recording: Estimate records once and replays through FromTrajectory, the
// estimation task registered under kind "size". One recorded walk therefore
// answers size questions alongside label-pair, census and motif queries,
// and size estimation inherits the fleet machinery — parallel walkers,
// context cancellation, budget caps, and between-walker confidence
// intervals — for free. Single-walker results are bit-identical to the
// historical private walk loop (pinned by the package's golden test).
package sizeest

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/osn"
)

// ciLevel is the nominal coverage of the multi-walker intervals.
const ciLevel = 0.95

// Options configures a size estimation run.
type Options struct {
	// BurnIn is the number of walk steps discarded before sampling.
	BurnIn int
	// ThinGap excludes sample pairs closer than this along the walk from
	// the collision count; 0 means 2.5% of the (per-walker) sample count
	// (the [11] default).
	ThinGap int
	// Rng drives all random choices. Required.
	Rng *rand.Rand
	// Start, when non-negative, fixes the walk's start node.
	Start graph.Node
	// Walkers is the number of concurrent walkers splitting the sample
	// count (see core.Options.Walkers); 0 or 1 records serially, which is
	// bit-identical to the historical single-walk implementation.
	Walkers int
	// Seed roots the per-walker RNG streams when Walkers >= 2.
	Seed int64
	// Ctx cancels a run in flight; nil means context.Background().
	Ctx context.Context
}

// Result reports one size estimation run.
type Result struct {
	// Nodes is the |V| estimate.
	Nodes float64 `json:"nodes"`
	// Edges is the |E| estimate.
	Edges float64 `json:"edges"`
	// MeanDegree is the harmonic-identity mean-degree estimate R/Ψ1
	// (E_π[1/d]⁻¹ = 2|E|/|V|), free from the same samples.
	MeanDegree float64 `json:"mean_degree"`
	// Collisions is the number of colliding sample pairs the |V| estimate
	// rests on; treat small values (< ~10) as unreliable.
	Collisions int `json:"collisions"`
	// Samples is the number of retained walk samples.
	Samples int `json:"-"`
	// APICalls is the number of charged API calls during sampling (summed
	// per-walker bills for a multi-walker run).
	APICalls int64 `json:"-"`
	// Walkers is how many concurrent walkers produced the sample.
	Walkers int `json:"-"`
	// NodesCI and EdgesCI are variance-based confidence intervals from the
	// per-walker estimates; zero (Valid() == false) on serial runs or when
	// fewer than two walkers saw a collision.
	NodesCI core.CI `json:"nodes_ci,omitzero"`
	EdgesCI core.CI `json:"edges_ci,omitzero"`
}

func (o *Options) validate() error {
	if o.Rng == nil {
		return fmt.Errorf("sizeest: Options.Rng is required")
	}
	if o.BurnIn < 0 {
		return fmt.Errorf("sizeest: negative burn-in %d", o.BurnIn)
	}
	if o.ThinGap < 0 {
		return fmt.Errorf("sizeest: negative thinning gap %d", o.ThinGap)
	}
	if o.Walkers < 0 {
		return fmt.Errorf("sizeest: negative walker count %d", o.Walkers)
	}
	return nil
}

// coreOptions maps Options onto the shared recording configuration.
func (o *Options) coreOptions() core.Options {
	return core.Options{
		BurnIn:  o.BurnIn,
		Rng:     o.Rng,
		Start:   o.Start,
		Walkers: o.Walkers,
		Seed:    o.Seed,
		Ctx:     o.Ctx,
	}
}

// Estimate runs a k-sample walk and estimates |V| and |E|. It needs enough
// samples for collisions to occur — k of order sqrt(|V|) gives a handful,
// k of a few percent of |V| gives a sharp estimate. The walk is recorded as
// a core.Trajectory and replayed through FromTrajectory, so callers that
// already hold a trajectory can skip straight to the replay.
func Estimate(s *osn.Session, k int, opts Options) (Result, error) {
	var res Result
	if err := opts.validate(); err != nil {
		return res, err
	}
	if k <= 1 {
		return res, fmt.Errorf("sizeest: need k > 1 samples, got %d", k)
	}
	traj, err := core.RecordTrajectory(s, k, opts.coreOptions())
	if err != nil {
		return res, fmt.Errorf("sizeest: %w", err)
	}
	return FromTrajectory(traj, opts.ThinGap)
}

// FromTrajectory replays a recorded trajectory through the Katzir
// collision-counting size estimator at zero additional API cost. thinGap 0
// applies the 2.5%-of-samples spacing per walker. Ψ1/Ψ2 pool across
// walkers in walker order; the collision count pools within-walker pairs
// (subject to the spacing heuristic, which is defined along one walk) PLUS
// every cross-walker pair hitting the same node — different walkers are
// independent chains, so their coincidences need no spacing exclusion, and
// dropping them would inflate n̂ by ~W (Ψ1·Ψ2 grows quadratically in the
// pooled sample while within-walker pairs only grow as R²/W). Single-walker
// replays have no cross-walker pairs and are bit-identical to the
// historical serial estimator.
func FromTrajectory(t *core.Trajectory, thinGap int) (Result, error) {
	var res Result
	if t == nil || t.Samples() == 0 {
		return res, fmt.Errorf("sizeest: size replay needs a recorded trajectory")
	}
	outs, errs := core.RunTasksFused(t, []core.EstimationTask{sizeTask{gap: thinGap}})
	if errs[0] != nil {
		return res, errs[0]
	}
	return outs[0].(Result), nil
}

// sizeVisitor streams the trajectory's degree column through the
// collision-counting size estimator. Only the Ψ sums stream per step (their
// float accumulation order is the determinism contract); the collision
// counts are integer sums over unordered same-node sample pairs, so Result
// reads them off the trajectory's precomputed node-occurrence index instead
// of rebuilding per-walker position maps on every replay.
type sizeVisitor struct {
	t       *core.Trajectory
	thinGap int
	W       int

	// Per-walker scratch, reset in BeginWalker.
	wi       int
	pos      int
	wp1, wp2 float64

	// Pooled accumulators.
	psi1, psi2 float64
	perPsi1    []float64
	perPsi2    []float64
	perWithin  []int
	perCross   []int
	walkerLens []int
}

func newSizeVisitor(t *core.Trajectory, thinGap int) (*sizeVisitor, error) {
	if thinGap < 0 {
		return nil, fmt.Errorf("sizeest: negative thinning gap %d", thinGap)
	}
	W := t.NumWalkers()
	return &sizeVisitor{
		t:          t,
		thinGap:    thinGap,
		W:          W,
		perPsi1:    make([]float64, W),
		perPsi2:    make([]float64, W),
		perWithin:  make([]int, W),
		perCross:   make([]int, W),
		walkerLens: make([]int, W),
	}, nil
}

func (v *sizeVisitor) BeginWalker(w, n int) error {
	v.wi = w
	v.pos = 0
	v.wp1, v.wp2 = 0, 0
	return nil
}

func (v *sizeVisitor) VisitStep(i int) error {
	d := float64(v.t.StepDegree(i))
	v.wp1 += 1 / d
	v.wp2 += d
	v.pos++
	return nil
}

func (v *sizeVisitor) EndWalker(w int) error {
	v.perPsi1[w] = v.wp1
	v.perPsi2[w] = v.wp2
	v.walkerLens[w] = v.pos
	v.psi1 += v.wp1
	v.psi2 += v.wp2
	return nil
}

// countCollisions tallies same-node sample pairs from the occurrence index:
// within-walker pairs at least the walker's spacing gap apart, plus every
// cross-walker pair (independent chains need no spacing exclusion). It
// fills perWithin / perCross and returns the pooled count.
func (v *sizeVisitor) countCollisions() int {
	occ := v.t.Occurrences()
	gaps := make([]int, v.W)
	for w := range gaps {
		gap := v.thinGap
		if gap <= 0 {
			gap = v.walkerLens[w] / 40 // 2.5%·k, the [11] spacing
			if gap < 1 {
				gap = 1
			}
		}
		gaps[w] = gap
	}
	collisions := 0
	for j := range occ.Nodes {
		lo, hi := int(occ.Off[j]), int(occ.Off[j+1])
		// Within-walker far pairs: occurrences are walker-major, so each
		// walker's positions form a contiguous ascending run.
		for a := lo; a < hi; a++ {
			wa, pa := occ.Walker[a], occ.Pos[a]
			gap := int32(gaps[wa])
			for b := a + 1; b < hi && occ.Walker[b] == wa; b++ {
				if occ.Pos[b]-pa >= gap {
					collisions++
					v.perWithin[wa]++
				}
			}
		}
		if v.W > 1 && hi-lo > 1 {
			// Cross-walker pairs: Σ_{i<j} c_i·c_j = (T² − Σc_i²)/2 per node;
			// walker i is party to c_i·(T − c_i) of them.
			total := hi - lo
			sq := 0
			for a := lo; a < hi; {
				b := a + 1
				for b < hi && occ.Walker[b] == occ.Walker[a] {
					b++
				}
				c := b - a
				sq += c * c
				v.perCross[occ.Walker[a]] += c * (total - c)
				a = b
			}
			collisions += (total*total - sq) / 2
		}
	}
	return collisions
}

func (v *sizeVisitor) Result() (any, error) {
	var res Result
	k := v.t.Samples()
	W := v.W
	collisions := v.countCollisions()
	res.Samples = k
	res.APICalls = v.t.APICalls
	res.Walkers = v.t.Walkers
	res.Collisions = collisions
	res.MeanDegree = float64(k) / v.psi1
	if collisions == 0 {
		return res, fmt.Errorf("sizeest: no collisions among %d samples; increase k (graph too large for this budget)", k)
	}
	res.Nodes = v.psi1 * v.psi2 / (2 * float64(collisions))
	res.Edges = res.Nodes * float64(k) / (2 * v.psi1)
	if W > 1 {
		// Leave-one-walker-out jackknife. The collision estimator is too
		// nonlinear for per-walker subsample estimates (a 1/W-sized sample
		// has a badly biased collision rate), so the error bar comes from
		// W leave-one-out estimates — each using all samples except walker
		// i's, keeping the nonlinearity at full sample size — and the
		// interval is centered on the pooled estimate.
		loNodes := make([]float64, 0, W)
		loEdges := make([]float64, 0, W)
		for wi := 0; wi < W; wi++ {
			loCol := collisions - v.perWithin[wi] - v.perCross[wi]
			loPsi1 := v.psi1 - v.perPsi1[wi]
			loK := k - v.walkerLens[wi]
			if loCol <= 0 || loPsi1 <= 0 || loK <= 0 {
				continue
			}
			n := loPsi1 * (v.psi2 - v.perPsi2[wi]) / (2 * float64(loCol))
			loNodes = append(loNodes, n)
			loEdges = append(loEdges, n*float64(loK)/(2*loPsi1))
		}
		res.NodesCI = jackknifeCI(res.Nodes, loNodes)
		res.EdgesCI = jackknifeCI(res.Edges, loEdges)
	}
	return res, nil
}

// jackknifeCI builds a level-ciLevel interval around the pooled estimate
// from leave-one-out estimates: SE² = (W−1)/W · Σ(θ₍₋ᵢ₎ − θ̄₍₋·₎)².
func jackknifeCI(pooled float64, leaveOneOut []float64) core.CI {
	W := len(leaveOneOut)
	if W < 2 {
		return core.CI{Walkers: W}
	}
	mean := 0.0
	for _, v := range leaveOneOut {
		mean += v
	}
	mean /= float64(W)
	ss := 0.0
	for _, v := range leaveOneOut {
		d := v - mean
		ss += d * d
	}
	se := math.Sqrt(float64(W-1) / float64(W) * ss)
	z := math.Sqrt2 * math.Erfinv(ciLevel)
	return core.CI{
		Low:     pooled - z*se,
		High:    pooled + z*se,
		StdErr:  se,
		Level:   ciLevel,
		Walkers: W,
	}
}

// EstimateWithPriors mirrors the full no-prior pipeline the paper's
// assumption (2) sketches: estimate |V| and |E| first, and return a
// function that converts a degree-weighted sample mean into an F̂ without
// any exact prior. It is a convenience for callers composing sizeest with
// the core estimators.
func EstimateWithPriors(s *osn.Session, k int, opts Options) (nHat, eHat float64, err error) {
	r, err := Estimate(s, k, opts)
	if err != nil {
		return 0, 0, err
	}
	return r.Nodes, r.Edges, nil
}

// sizeTask is the size estimator in the estimation-task registry.
// Result type: Result.
type sizeTask struct{ gap int }

func (sizeTask) Kind() string { return "size" }

// NewVisitor implements core.EstimationTask: the collision counting streams
// over the driver's shared column sweep (core.RunTasksFused).
func (st sizeTask) NewVisitor(t *core.Trajectory) (core.TrajectoryVisitor, error) {
	return newSizeVisitor(t, st.gap)
}

func init() {
	core.RegisterTask(core.TaskSpec{
		Kind: "size",
		NewTask: func(p core.TaskParams) (core.EstimationTask, error) {
			if p.ThinGap < 0 {
				return nil, fmt.Errorf("sizeest: task kind \"size\" needs ThinGap >= 0, got %d", p.ThinGap)
			}
			return sizeTask{gap: p.ThinGap}, nil
		},
	})
}
