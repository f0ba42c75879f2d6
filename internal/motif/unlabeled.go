package motif

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/osn"
)

// Wedges estimates the total wedge count Σ_u d(u)(d(u)−1)/2 by node
// sampling: the per-node wedge count is Hansen–Hurwitz-weighted by the
// stationary probability. This is the structural (label-free) counterpart
// of LabeledWedges and part of the Hardiman–Katzir [11] substrate the paper
// builds on.
func Wedges(s *osn.Session, k int, opts Options) (Result, error) {
	traj, err := record(s, k, opts)
	if err != nil {
		return Result{}, err
	}
	return WedgesFromTrajectory(traj, nil)
}

// Triangles estimates the total triangle count by edge sampling: each
// sampled (uniform) edge contributes |N(u) ∩ N(v)| / 3, since every
// triangle is charged once per its three edges.
func Triangles(s *osn.Session, k int, opts Options) (Result, error) {
	traj, err := record(s, k, opts)
	if err != nil {
		return Result{}, err
	}
	return TrianglesFromTrajectory(traj, nil)
}

// ClusteringResult reports a global clustering coefficient estimate.
type ClusteringResult struct {
	// Coefficient is the estimated global clustering coefficient
	// 3·triangles / wedges.
	Coefficient float64
	// Triangles and Wedges are the underlying estimates.
	Triangles float64
	Wedges    float64
	// Samples is the number of walk samples used (shared by both parts).
	Samples int
	// APICalls is the number of charged API calls during sampling (summed
	// per-walker bills for a multi-walker run).
	APICalls int64
	// Walkers is how many concurrent walkers produced the sample.
	Walkers int
	// CI is a between-walker interval on the coefficient (fleet runs only).
	CI core.CI
}

// GlobalClustering estimates the global clustering coefficient
// c = 3·T / W from a single walk of k steps: every transition feeds the
// triangle estimator (it is a uniform edge sample) and every visited node
// feeds the wedge estimator — the one-walk-two-estimators trick of
// Hardiman & Katzir [11].
func GlobalClustering(s *osn.Session, k int, opts Options) (ClusteringResult, error) {
	traj, err := record(s, k, opts)
	if err != nil {
		return ClusteringResult{}, err
	}
	return GlobalClusteringFromTrajectory(traj)
}

// GlobalClusteringFromTrajectory replays a recorded trajectory through both
// the triangle and wedge estimators and forms their ratio — the clustering
// coefficient rides along on any recording at zero additional API cost.
func GlobalClusteringFromTrajectory(t *core.Trajectory) (ClusteringResult, error) {
	if t == nil || t.Samples() == 0 {
		return ClusteringResult{}, fmt.Errorf("motif: clustering replay needs a recorded trajectory")
	}
	outs, errs := core.RunTasksFused(t, []core.EstimationTask{clusteringTask{}})
	if errs[0] != nil {
		return ClusteringResult{}, errs[0]
	}
	return outs[0].(ClusteringResult), nil
}

// clusteringTask replays the clustering coefficient through the fused
// driver. It is not a registered kind: GlobalClusteringFromTrajectory is
// its only caller.
type clusteringTask struct{}

func (clusteringTask) Kind() string { return "clustering" }

// NewVisitor implements core.EstimationTask.
func (clusteringTask) NewVisitor(t *core.Trajectory) (core.TrajectoryVisitor, error) {
	tri, err := newTriangleVisitor(t, nil)
	if err != nil {
		return nil, err
	}
	return &clusteringVisitor{tri: tri, wedge: newWedgeVisitor(t, nil), perCoeff: make([]float64, 0, t.NumWalkers())}, nil
}

// clusteringVisitor feeds the unlabeled triangle and wedge estimators from
// one pass — every transition is a uniform edge sample, every visited node a
// degree-weighted node sample — and keeps each walker's coefficient for the
// between-walker interval.
type clusteringVisitor struct {
	tri      *triangleVisitor
	wedge    *wedgeVisitor
	perCoeff []float64
}

func (v *clusteringVisitor) BeginWalker(w, n int) error {
	if err := v.tri.BeginWalker(w, n); err != nil {
		return err
	}
	return v.wedge.BeginWalker(w, n)
}

func (v *clusteringVisitor) VisitStep(i int) error {
	if err := v.tri.VisitStep(i); err != nil {
		return err
	}
	return v.wedge.VisitStep(i)
}

func (v *clusteringVisitor) EndWalker(w int) error {
	if v.wedge.wn > 0 && v.wedge.whh.Estimate() > 0 {
		v.perCoeff = append(v.perCoeff, 3*v.tri.whh.Estimate()/v.wedge.whh.Estimate())
	}
	return nil
}

func (v *clusteringVisitor) Result() (any, error) {
	t := v.wedge.t
	res := ClusteringResult{
		Triangles: v.tri.hh.Estimate(),
		Wedges:    v.wedge.hh.Estimate(),
		Samples:   v.wedge.samples,
		APICalls:  t.APICalls,
		Walkers:   t.Walkers,
	}
	if res.Wedges > 0 {
		res.Coefficient = 3 * res.Triangles / res.Wedges
	}
	if t.Walkers > 1 {
		res.CI = estimate.CIFromEstimates(v.perCoeff, ciLevel)
	}
	return res, nil
}
