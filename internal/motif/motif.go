// Package motif extends the paper's estimator framework to the future-work
// direction its conclusion names: "estimate some other types of graph
// properties such as numbers of wedges and triangles refined by users'
// labels in OSNs". It also covers the unlabeled (global) wedge and triangle
// counts. All estimators are validated against the exact counters in
// internal/exact.
//
// The estimators are pure replays over a recorded core.Trajectory (the
// recording keeps each step's degree and friend list, plus each walker's
// start state, so both endpoints of every traversed edge are known). They
// are reached one way: record a walk (core.RecordTrajectory), then replay
// the task registered under kind "motif" (core.RunTask or
// core.RunTasksFused). The task rides along on any recording at zero
// additional API cost, with parallel walkers, cancellation, budget caps and
// confidence intervals inherited from the shared fleet machinery.
// Single-walker results are bit-identical to the historical private walk
// loops (pinned by the package golden test).
package motif

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/graph"
)

// Shape names the supported motif shapes — the registry's Motif parameter.
const (
	ShapeWedges    = "wedges"
	ShapeTriangles = "triangles"
)

// rowVisitor is one motif row's estimator inside a motif pass: the wedge or
// triangle count for one label pair, or the unlabeled count.
type rowVisitor interface {
	beginWalker(w, n int)
	visitStep(i int)
	endWalker()
	row() TaskRow
}

// rowHH is one row's Hansen–Hurwitz estimator over the trajectory's
// walker streams: pooled in walker order, so serial replays are
// bit-identical to the historical sampling loops, and kept per walker for
// the between-walker interval.
type rowHH struct {
	t        *core.Trajectory
	pair     *graph.LabelPair
	numEdges float64
	hh       estimate.FleetHH
}

func newRowHH(t *core.Trajectory, pair *graph.LabelPair) rowHH {
	return rowHH{t: t, pair: pair, numEdges: float64(t.NumEdges), hh: estimate.NewFleetHH(t.NumWalkers())}
}

func (r *rowHH) beginWalker(w, n int) { r.hh.BeginWalker(n) }

func (r *rowHH) endWalker() { r.hh.EndWalker() }

func (r *rowHH) row() TaskRow {
	est, ci, _ := r.hh.Result()
	return TaskRow{Pair: r.pair, Estimate: est, CI: ci}
}

// wedgeVisitor streams the wedge estimator over a trajectory's step columns.
// With a pair it estimates the number of wedges (paths of length two) whose
// BOTH edges are target edges for the pair: Σ_u C(T(u), 2), the quantity
// exact.CountLabeledWedges computes by full traversal. Without one it
// estimates the total wedge count Σ_u d(u)(d(u)−1)/2, the structural
// counterpart and part of the Hardiman–Katzir [11] substrate the paper
// builds on. Every step is a node sample drawn ∝ degree, so the per-node
// wedge count is Hansen–Hurwitz-weighted by the stationary probability
// d(u)/2|E|. A labeled row reads T(u) from the pair's column, which the
// trajectory memoizes (core.Trajectory.TargetDegrees), so a warm replay
// reads no labels.
type wedgeVisitor struct {
	rowHH
	tt []int32 // the pair's T(u) column, -1 where u carries neither label
}

func newWedgeVisitor(t *core.Trajectory, pair *graph.LabelPair) *wedgeVisitor {
	v := &wedgeVisitor{rowHH: newRowHH(t, pair)}
	if pair != nil {
		v.tt = t.TargetDegrees(*pair)
	}
	return v
}

func (v *wedgeVisitor) visitStep(i int) {
	d := v.t.StepDegree(i)
	tt := d
	if v.tt != nil {
		tt = int(max(v.tt[i], 0))
	}
	wedges := float64(tt) * float64(tt-1) / 2
	// HH term: value / π(u) with π(u) = d(u)/2|E|.
	v.hh.Add(wedges * 2 * v.numEdges / float64(d))
}

// triangleVisitor streams the triangle estimator over a trajectory's step
// columns. Every recorded transition is a uniform edge sample, as in
// NeighborSample. Without a pair each sampled edge (u, v) contributes
// |N(u) ∩ N(v)| / 3, since every triangle is charged once per its three
// edges; the common-neighbor count is a precomputed trajectory column. With
// a pair it estimates the triangles containing at least one target edge
// (exact.CountLabeledTriangles): for a sampled target edge it intersects
// the two friend lists and credits each triangle 1/t, where t is the
// triangle's number of target edges, so triangles with several target edges
// are not over-counted. The labeled path chains each step's friend list to
// the next step's previous-node list, seeded per walker from the recorded
// start state.
type triangleVisitor struct {
	rowHH
	labels        core.LabelReader
	prevNeighbors []graph.Node
	common        []int32
}

func newTriangleVisitor(t *core.Trajectory, pair *graph.LabelPair) (*triangleVisitor, error) {
	if !t.HasStarts() {
		return nil, fmt.Errorf("motif: trajectory lacks per-walker start states; re-record it")
	}
	tv := &triangleVisitor{rowHH: newRowHH(t, pair), labels: t.Labels()}
	if pair == nil {
		// The unlabeled credit is common/3, and the common-neighbor count
		// is a precomputed trajectory column — no per-step intersections.
		tv.common = t.EdgeCommonNeighbors()
	}
	return tv, nil
}

func (tv *triangleVisitor) beginWalker(w, n int) {
	tv.rowHH.beginWalker(w, n)
	if tv.common == nil {
		tv.prevNeighbors = tv.t.StartNeighbors(w)
	}
}

func (tv *triangleVisitor) visitStep(i int) {
	value := 0.0
	if tv.common != nil {
		value = float64(tv.common[i]) / 3
	} else {
		u, v := tv.t.StepPrev(i), tv.t.StepNode(i)
		nbrs := tv.t.StepNeighbors(i)
		if isTarget(tv.labels, u, v, *tv.pair) {
			value = triangleCredit(tv.labels, u, v, tv.prevNeighbors, nbrs, *tv.pair)
		}
		tv.prevNeighbors = nbrs
	}
	// Sampled edge is uniform over E: π = 1/|E|.
	tv.hh.Add(value * tv.numEdges)
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

func isTarget(labels core.LabelReader, u, v graph.Node, pair graph.LabelPair) bool {
	return labels.HasLabel(u, pair.T1) && labels.HasLabel(v, pair.T2) ||
		labels.HasLabel(u, pair.T2) && labels.HasLabel(v, pair.T1)
}
