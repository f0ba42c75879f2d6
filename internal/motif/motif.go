// Package motif extends the paper's estimator framework to the future-work
// direction its conclusion names: "estimate some other types of graph
// properties such as numbers of wedges and triangles refined by users'
// labels in OSNs". It also covers the unlabeled (global) wedge and triangle
// counts. All estimators are validated against the exact counters in
// internal/exact.
//
// Since the task-registry refactor the estimators are pure replays over a
// recorded core.Trajectory (the recording keeps each step's degree and
// friend list, plus each walker's start state, so both endpoints of every
// traversed edge are known). LabeledWedges/LabeledTriangles record one walk
// and replay it; callers holding a trajectory use the FromTrajectory
// variants — the estimation task registered under kind "motif" — to ride
// along on any recording at zero additional API cost, with parallel
// walkers, cancellation, budget caps and confidence intervals inherited
// from the shared fleet machinery. Single-walker results are bit-identical
// to the historical private walk loops (pinned by the package golden test).
package motif

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/osn"
)

// ciLevel is the nominal coverage of the multi-walker intervals.
const ciLevel = 0.95

// Shape names the supported motif shapes — the registry's Motif parameter.
const (
	ShapeWedges    = "wedges"
	ShapeTriangles = "triangles"
)

// Options mirrors core.Options for the motif estimators.
type Options struct {
	// BurnIn is the number of walk steps discarded before sampling.
	BurnIn int
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

func (o *Options) validate() error {
	if o.Rng == nil {
		return fmt.Errorf("motif: Options.Rng is required")
	}
	if o.BurnIn < 0 {
		return fmt.Errorf("motif: negative burn-in %d", o.BurnIn)
	}
	if o.Walkers < 0 {
		return fmt.Errorf("motif: negative walker count %d", o.Walkers)
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

// Result reports one motif estimation run.
type Result struct {
	// Estimate is the estimated motif count.
	Estimate float64
	// Samples is the number of walk samples used.
	Samples int
	// APICalls is the number of charged API calls during sampling (summed
	// per-walker bills for a multi-walker run).
	APICalls int64
	// Walkers is how many concurrent walkers produced the sample.
	Walkers int
	// CI is a variance-based confidence interval from the per-walker
	// estimates; zero (Valid() == false) on serial runs.
	CI core.CI
}

// record runs one recorded walk for k samples under opts.
func record(s *osn.Session, k int, opts Options) (*core.Trajectory, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("motif: need k > 0 samples, got %d", k)
	}
	traj, err := core.RecordTrajectory(s, k, opts.coreOptions())
	if err != nil {
		return nil, fmt.Errorf("motif: %w", err)
	}
	return traj, nil
}

// LabeledWedges estimates the number of wedges (paths of length two) whose
// BOTH edges are target edges for the pair: Σ_u C(T(u), 2), the quantity
// exact.CountLabeledWedges computes by full traversal. It samples k nodes
// by random walk and Hansen–Hurwitz-weights the per-node wedge count
// C(T(u), 2) by the stationary probability d(u)/2|E|.
func LabeledWedges(s *osn.Session, pair graph.LabelPair, k int, opts Options) (Result, error) {
	traj, err := record(s, k, opts)
	if err != nil {
		return Result{}, err
	}
	return WedgesFromTrajectory(traj, &pair)
}

// LabeledTriangles estimates the number of triangles containing at least
// one target edge — exact.CountLabeledTriangles by sampling. It samples k
// edges via the walk (each a uniform edge sample, as in NeighborSample);
// for a sampled target edge (u, v) it intersects the two neighbor lists and
// credits each triangle 1/t where t is the triangle's number of target
// edges, so triangles with several target edges are not over-counted.
func LabeledTriangles(s *osn.Session, pair graph.LabelPair, k int, opts Options) (Result, error) {
	traj, err := record(s, k, opts)
	if err != nil {
		return Result{}, err
	}
	return TrianglesFromTrajectory(traj, &pair)
}

// WedgesFromTrajectory replays a recorded trajectory through the wedge
// estimator at zero additional API cost. A nil pair counts all wedges;
// otherwise only wedges whose both edges carry the pair. Walker streams
// pool in walker order; serial replays are bit-identical to the historical
// sampling loop.
func WedgesFromTrajectory(t *core.Trajectory, pair *graph.LabelPair) (Result, error) {
	if t == nil || t.Samples() == 0 {
		return Result{}, fmt.Errorf("motif: wedge replay needs a recorded trajectory")
	}
	return replayShape(t, ShapeWedges, pair)
}

// replayShape replays one shape for one pair (nil: the unlabeled count)
// through the fused driver, as a one-row motif task.
func replayShape(t *core.Trajectory, shape string, pair *graph.LabelPair) (Result, error) {
	task := motifTask{shape: shape}
	if pair != nil {
		task.pairs = []graph.LabelPair{*pair}
	}
	outs, errs := core.RunTasksFused(t, []core.EstimationTask{task})
	if errs[0] != nil {
		return Result{}, errs[0]
	}
	r := outs[0].(TaskResult)
	return Result{Estimate: r.Rows[0].Estimate, Samples: r.Samples, APICalls: r.APICalls, Walkers: r.Walkers, CI: r.Rows[0].CI}, nil
}

// wedgeVisitor streams the wedge estimator over a trajectory's step columns.
// Labeled target degrees come from the trajectory's precomputed label-mask
// columns (core.TargetDegreeAt) when available.
type wedgeVisitor struct {
	t         *core.Trajectory
	pair      *graph.LabelPair
	numEdges  float64
	hh        *estimate.HansenHurwitz
	whh       *estimate.HansenHurwitz
	perWalker []float64
	samples   int
	wn        int
}

func newWedgeVisitor(t *core.Trajectory, pair *graph.LabelPair) *wedgeVisitor {
	return &wedgeVisitor{
		t:         t,
		pair:      pair,
		numEdges:  float64(t.NumEdges),
		hh:        &estimate.HansenHurwitz{},
		perWalker: make([]float64, 0, t.NumWalkers()),
	}
}

func (v *wedgeVisitor) BeginWalker(w, n int) error {
	v.whh = &estimate.HansenHurwitz{}
	v.wn = n
	return nil
}

func (v *wedgeVisitor) VisitStep(i int) error {
	v.samples++
	d := v.t.StepDegree(i)
	tt := d
	if v.pair != nil {
		tt, _ = v.t.TargetDegreeAt(i, *v.pair)
	}
	wedges := float64(tt) * float64(tt-1) / 2
	// HH term: value / π(u) with π(u) = d(u)/2|E|.
	term := wedges * 2 * v.numEdges / float64(d)
	if err := v.hh.Add(term, 1); err != nil {
		return err
	}
	return v.whh.Add(term, 1)
}

func (v *wedgeVisitor) EndWalker(w int) error {
	if v.wn > 0 {
		v.perWalker = append(v.perWalker, v.whh.Estimate())
	}
	return nil
}

func (v *wedgeVisitor) Result() (any, error) {
	res := Result{
		Estimate: v.hh.Estimate(),
		Samples:  v.samples,
		APICalls: v.t.APICalls,
		Walkers:  v.t.Walkers,
	}
	if v.t.Walkers > 1 {
		res.CI = estimate.CIFromEstimates(v.perWalker, ciLevel)
	}
	return res, nil
}

// TrianglesFromTrajectory replays a recorded trajectory through the
// triangle estimator at zero additional API cost. A nil pair counts all
// triangles (each credited 1/3 per sampled edge); otherwise triangles
// containing at least one target edge, credited 1/t per sampled target edge
// where t is the triangle's target-edge count. It needs the trajectory's
// per-walker start states (recorded since the task-registry refactor) to
// know both endpoints of each walker's first edge.
func TrianglesFromTrajectory(t *core.Trajectory, pair *graph.LabelPair) (Result, error) {
	if t == nil || t.Samples() == 0 {
		return Result{}, fmt.Errorf("motif: triangle replay needs a recorded trajectory")
	}
	return replayShape(t, ShapeTriangles, pair)
}

// triangleVisitor streams the triangle estimator over a trajectory's step
// columns, chaining each step's friend list to the next step's previous-node
// list (seeded per walker from the recorded start state).
type triangleVisitor struct {
	t             *core.Trajectory
	pair          *graph.LabelPair
	labels        core.LabelReader
	numEdges      float64
	hh            *estimate.HansenHurwitz
	whh           *estimate.HansenHurwitz
	perWalker     []float64
	prevNeighbors []graph.Node
	common        []int32
	samples       int
	wn            int
}

func newTriangleVisitor(t *core.Trajectory, pair *graph.LabelPair) (*triangleVisitor, error) {
	if !t.HasStarts() {
		return nil, fmt.Errorf("motif: trajectory lacks per-walker start states; re-record it")
	}
	tv := &triangleVisitor{
		t:         t,
		pair:      pair,
		labels:    t.Labels(),
		numEdges:  float64(t.NumEdges),
		hh:        &estimate.HansenHurwitz{},
		perWalker: make([]float64, 0, t.NumWalkers()),
	}
	if pair == nil {
		// The unlabeled credit is common/3, and the common-neighbor count
		// is a precomputed trajectory column — no per-step intersections.
		tv.common = t.EdgeCommonNeighbors()
	}
	return tv, nil
}

func (tv *triangleVisitor) BeginWalker(w, n int) error {
	tv.whh = &estimate.HansenHurwitz{}
	if tv.common == nil {
		tv.prevNeighbors = tv.t.StartNeighbors(w)
	}
	tv.wn = n
	return nil
}

func (tv *triangleVisitor) VisitStep(i int) error {
	tv.samples++
	value := 0.0
	if tv.common != nil {
		value = float64(tv.common[i]) / 3
	} else {
		u, v := tv.t.StepPrev(i), tv.t.StepNode(i)
		nbrs := tv.t.StepNeighbors(i)
		if tv.pair == nil {
			value = triangleCreditAll(tv.prevNeighbors, nbrs)
		} else if isTarget(tv.labels, u, v, *tv.pair) {
			value = triangleCredit(tv.labels, u, v, tv.prevNeighbors, nbrs, *tv.pair)
		}
		tv.prevNeighbors = nbrs
	}
	// Sampled edge is uniform over E: π = 1/|E|.
	term := value * tv.numEdges
	if err := tv.hh.Add(term, 1); err != nil {
		return err
	}
	if err := tv.whh.Add(term, 1); err != nil {
		return err
	}
	return nil
}

func (tv *triangleVisitor) EndWalker(w int) error {
	if tv.wn > 0 {
		tv.perWalker = append(tv.perWalker, tv.whh.Estimate())
	}
	return nil
}

func (tv *triangleVisitor) Result() (any, error) {
	res := Result{
		Estimate: tv.hh.Estimate(),
		Samples:  tv.samples,
		APICalls: tv.t.APICalls,
		Walkers:  tv.t.Walkers,
	}
	if tv.t.Walkers > 1 {
		res.CI = estimate.CIFromEstimates(tv.perWalker, ciLevel)
	}
	return res, nil
}

// triangleCredit returns Σ_{w ∈ N(u)∩N(v)} 1/t(u,v,w), where t counts the
// target edges of the triangle (at least 1 since (u,v) is one). nu and nv
// are the recorded (sorted) friend lists of u and v.
func triangleCredit(labels core.LabelReader, u, v graph.Node, nu, nv []graph.Node, pair graph.LabelPair) float64 {
	var credit float64
	i, j := 0, 0
	for i < len(nu) && j < len(nv) {
		switch {
		case nu[i] < nv[j]:
			i++
		case nu[i] > nv[j]:
			j++
		default:
			w := nu[i]
			t := 1 // (u,v) is a target edge by precondition
			if isTarget(labels, u, w, pair) {
				t++
			}
			if isTarget(labels, v, w, pair) {
				t++
			}
			credit += 1 / float64(t)
			i++
			j++
		}
	}
	return credit
}

// triangleCreditAll is the unlabeled credit: every common neighbor closes a
// triangle whose three edges are all sampleable, so each counts 1/3.
func triangleCreditAll(nu, nv []graph.Node) float64 {
	common := 0
	i, j := 0, 0
	for i < len(nu) && j < len(nv) {
		switch {
		case nu[i] < nv[j]:
			i++
		case nu[i] > nv[j]:
			j++
		default:
			common++
			i++
			j++
		}
	}
	return float64(common) / 3
}

func isTarget(labels core.LabelReader, u, v graph.Node, pair graph.LabelPair) bool {
	return labels.HasLabel(u, pair.T1) && labels.HasLabel(v, pair.T2) ||
		labels.HasLabel(u, pair.T2) && labels.HasLabel(v, pair.T1)
}
