package motif

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// TaskRow is one motif answer of a registry-dispatched task: the estimate
// for one label pair, or the unlabeled count when Pair is nil.
type TaskRow struct {
	Pair     *graph.LabelPair
	Estimate float64
	// CI is the between-walker interval (valid only for fleet recordings).
	CI core.CI
}

// TaskResult is the result type of task kind "motif": one row per queried
// pair (or a single unlabeled row), all replayed from the same trajectory.
type TaskResult struct {
	// Shape is "wedges" or "triangles".
	Shape string
	// Rows holds one answer per queried pair, in query order; a single
	// pair-less row when no pairs were given.
	Rows []TaskRow
	// Samples, APICalls and Walkers describe the shared trajectory.
	Samples  int
	APICalls int64
	Walkers  int
}

// motifTask adapts the replay estimators to the estimation-task registry.
type motifTask struct {
	shape string
	pairs []graph.LabelPair
}

func (motifTask) Kind() string { return "motif" }

// NewVisitor implements core.EstimationTask: all queried pairs stream over
// ONE column sweep, each pair's accumulator fed the identical sample
// sequence a one-pair replay (WedgesFromTrajectory/TrianglesFromTrajectory)
// would feed it.
func (mt motifTask) NewVisitor(t *core.Trajectory) (core.TrajectoryVisitor, error) {
	pairs := make([]*graph.LabelPair, 0, len(mt.pairs)+1)
	if len(mt.pairs) == 0 {
		pairs = append(pairs, nil)
	} else {
		for i := range mt.pairs {
			pairs = append(pairs, &mt.pairs[i])
		}
	}
	subs := make([]core.TrajectoryVisitor, len(pairs))
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
	return &motifVisitor{shape: mt.shape, pairs: pairs, subs: subs}, nil
}

// motifVisitor fans one fused pass out to per-pair wedge/triangle visitors.
type motifVisitor struct {
	shape string
	pairs []*graph.LabelPair
	subs  []core.TrajectoryVisitor
}

func (mv *motifVisitor) BeginWalker(w, n int) error {
	for _, s := range mv.subs {
		if err := s.BeginWalker(w, n); err != nil {
			return err
		}
	}
	return nil
}

func (mv *motifVisitor) VisitStep(i int) error {
	for _, s := range mv.subs {
		if err := s.VisitStep(i); err != nil {
			return err
		}
	}
	return nil
}

func (mv *motifVisitor) EndWalker(w int) error {
	for _, s := range mv.subs {
		if err := s.EndWalker(w); err != nil {
			return err
		}
	}
	return nil
}

func (mv *motifVisitor) Result() (any, error) {
	res := TaskResult{Shape: mv.shape}
	for i, s := range mv.subs {
		out, err := s.Result()
		if err != nil {
			return nil, err
		}
		r := out.(Result)
		res.Rows = append(res.Rows, TaskRow{Pair: mv.pairs[i], Estimate: r.Estimate, CI: r.CI})
		res.Samples = r.Samples
		res.APICalls = r.APICalls
		res.Walkers = r.Walkers
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
