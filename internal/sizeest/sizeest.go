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
// The estimator is a pure replay over a recorded core.Trajectory, reached
// one way: record a walk (core.RecordTrajectory), then replay the task
// registered under kind "size" (core.RunTask or core.RunTasksFused). It
// needs enough samples for collisions to occur — k of order sqrt(|V|) gives
// a handful, k of a few percent of |V| gives a sharp estimate. One recorded
// walk therefore answers size questions alongside label-pair, census and
// motif queries, and size estimation inherits the fleet machinery —
// parallel walkers, context cancellation, budget caps, and between-walker
// confidence intervals — for free. Single-walker results are bit-identical
// to the historical private walk loop (pinned by the package's golden
// test).
package sizeest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/estimate"
)

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
	// BurnIn is the burn-in the walk was recorded with.
	BurnIn int `json:"-"`
	// Walkers is how many concurrent walkers produced the sample.
	Walkers int `json:"-"`
	// NodesCI is the leave-one-walker-out jackknife interval on Nodes;
	// zero (Valid() == false) on serial runs or when fewer than two
	// leave-one-out samples saw a collision.
	NodesCI core.CI `json:"nodes_ci,omitzero"`
	// EdgesCI is the matching interval on Edges.
	EdgesCI core.CI `json:"edges_ci,omitzero"`
}

// sizeVisitor replays a recorded trajectory through the Katzir
// collision-counting size estimator at zero additional API cost. A thinGap
// of 0 applies the 2.5%-of-samples spacing per walker. Ψ1/Ψ2 pool across
// walkers in walker order; the collision count pools within-walker pairs
// (subject to the spacing heuristic, which is defined along one walk) PLUS
// every cross-walker pair hitting the same node — different walkers are
// independent chains, so their coincidences need no spacing exclusion, and
// dropping them would inflate n̂ by ~W (Ψ1·Ψ2 grows quadratically in the
// pooled sample while within-walker pairs only grow as R²/W). Single-walker
// replays have no cross-walker pairs and are bit-identical to the
// historical serial estimator.
//
// Only the Ψ sums stream per step over the degree column (their float
// accumulation order is the determinism contract); the collision
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

// newSizeVisitor sizes the visitor for t. thinGap is non-negative: the
// registry's constructor is the only way to build a sizeTask, and it
// rejects a negative gap.
func newSizeVisitor(t *core.Trajectory, thinGap int) *sizeVisitor {
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
	}
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
	res.BurnIn = v.t.BurnIn
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
		res.NodesCI = estimate.JackknifeCI(res.Nodes, loNodes)
		res.EdgesCI = estimate.JackknifeCI(res.Edges, loEdges)
	}
	return res, nil
}

// sizeTask is the size estimator in the estimation-task registry.
// Result type: Result.
type sizeTask struct{ gap int }

func (sizeTask) Kind() string { return "size" }

// NewVisitor implements core.EstimationTask: the collision counting streams
// over the driver's shared column sweep (core.RunTasksFused).
func (st sizeTask) NewVisitor(t *core.Trajectory) (core.TrajectoryVisitor, error) {
	return newSizeVisitor(t, st.gap), nil
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
