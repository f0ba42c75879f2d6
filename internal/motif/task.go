package motif

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
)

// TaskRow is one motif answer of a registry-dispatched task: the estimate
// for one label pair, or the unlabeled count when Pair is nil.
type TaskRow struct {
	// Pair is the queried label pair; nil for the unlabeled count.
	*graph.Pair
	// Estimate is the estimated motif count.
	Estimate float64 `json:"estimate"`
	// CI is the between-walker interval (valid only for fleet recordings).
	CI core.CI `json:"ci,omitzero"`
}

// String prints the row's pair, or "unlabeled", with its estimate and any
// valid interval; without it, fmt would print the embedded pair's String
// alone, through a nil pointer for the unlabeled row.
func (r TaskRow) String() string {
	pair := "unlabeled"
	if r.Pair != nil {
		pair = r.Pair.String()
	}
	s := fmt.Sprintf("%s: estimate %g", pair, r.Estimate)
	if r.CI.Valid() {
		s += fmt.Sprintf(", %g%% CI [%g, %g]", 100*r.CI.Level, r.CI.Low, r.CI.High)
	}
	return s
}

// TaskResult is the result type of task kind "motif": one row per queried
// pair (or a single unlabeled row), all replayed from the same trajectory.
type TaskResult struct {
	// Shape is "wedges" or "triangles".
	Shape string `json:"shape"`
	// Rows holds one answer per queried pair, in query order; a single
	// pair-less row when no pairs were given.
	Rows []TaskRow `json:"rows"`
	// Samples is the shared trajectory's sample count.
	Samples int `json:"-"`
	// APICalls is the shared trajectory's recording cost (summed
	// per-walker bills for a multi-walker recording).
	APICalls int64 `json:"-"`
	// BurnIn is the burn-in the shared trajectory was recorded with.
	BurnIn int `json:"-"`
	// Walkers is how many concurrent walkers recorded the trajectory.
	Walkers int `json:"-"`
}

// motifTask adapts the replay estimators to the estimation-task registry.
type motifTask struct {
	shape string
	pairs []graph.LabelPair
}

func (motifTask) Kind() string { return "motif" }

// NewVisitor implements core.EstimationTask: all queried pairs stream over
// ONE column sweep, each row's accumulator fed the identical sample
// sequence a one-pair replay would feed it.
func (mt motifTask) NewVisitor(t *core.Trajectory) (core.TrajectoryVisitor, error) {
	pairs := make([]*graph.LabelPair, 0, len(mt.pairs)+1)
	if len(mt.pairs) == 0 {
		pairs = append(pairs, nil)
	} else {
		// The rows point at a copy, so no result shares the caller's pairs.
		own := slices.Clone(mt.pairs)
		for i := range own {
			pairs = append(pairs, &own[i])
		}
	}
	subs := make([]rowVisitor, len(pairs))
	for i, p := range pairs {
		if mt.shape == ShapeTriangles {
			v, err := newTriangleVisitor(t, p)
			if err != nil {
				return nil, err
			}
			subs[i] = v
		} else {
			subs[i] = newWedgeVisitor(t, p)
		}
	}
	return &motifVisitor{t: t, shape: mt.shape, subs: subs}, nil
}

// motifVisitor fans one fused pass out to per-row wedge/triangle visitors.
type motifVisitor struct {
	t     *core.Trajectory
	shape string
	subs  []rowVisitor
}

func (mv *motifVisitor) BeginWalker(w, n int) error {
	for _, s := range mv.subs {
		s.beginWalker(w, n)
	}
	return nil
}

func (mv *motifVisitor) VisitStep(i int) error {
	for _, s := range mv.subs {
		s.visitStep(i)
	}
	return nil
}

func (mv *motifVisitor) EndWalker(w int) error {
	for _, s := range mv.subs {
		s.endWalker()
	}
	return nil
}

func (mv *motifVisitor) Result() (any, error) {
	res := TaskResult{
		Shape:    mv.shape,
		Rows:     make([]TaskRow, len(mv.subs)),
		Samples:  mv.t.Samples(),
		APICalls: mv.t.APICalls,
		BurnIn:   mv.t.BurnIn,
		Walkers:  mv.t.Walkers,
	}
	for i, s := range mv.subs {
		res.Rows[i] = s.row()
	}
	return res, nil
}

func init() {
	core.RegisterTask(core.TaskSpec{
		Kind: "motif",
		NewTask: func(p core.TaskParams) (core.EstimationTask, error) {
			switch p.Motif {
			case ShapeWedges, ShapeTriangles:
			default:
				return nil, fmt.Errorf("motif: task kind \"motif\" needs Motif %q or %q, got %q",
					ShapeWedges, ShapeTriangles, p.Motif)
			}
			return motifTask{shape: p.Motif, pairs: p.Pairs}, nil
		},
	})
}
