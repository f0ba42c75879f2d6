package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// This file is the "assortativity" estimation task: degree and label mixing
// coefficients as pure trajectory replay. A stationary random walk visits
// each directed edge orientation with equal probability, so the recorded
// (prev, node) step pairs ARE a uniform edge-endpoint sample — the same
// population internal/exact/assortativity.go averages exhaustively — and
// both coefficients are free arithmetic over a walk that was already paid
// for by some other question.

// AssortativityResult is the "assortativity" task's result.
type AssortativityResult struct {
	// Variant echoes the estimated measure: "degree" or "label".
	Variant string
	// Coefficient is the estimated assortativity in [-1, 1]: Newman's
	// degree correlation for the degree variant, the categorical
	// (same-label) assortativity coefficient for the label variant.
	Coefficient float64
	// Used is how many recorded steps contributed an edge-endpoint sample.
	Used int
	// Skipped is how many steps were dropped: an unlabeled endpoint (label
	// variant) or a walker's first step on a trajectory without recorded
	// starts (degree variant, pre-start-column files).
	Skipped int
	// Samples and APICalls describe the shared walk.
	Samples  int
	APICalls int64
	// Walkers is the recording's fleet size.
	Walkers int
	// CI is the leave-one-walker-out jackknife interval around Coefficient
	// (multi-walker runs only).
	CI CI
}

// assortWalker is one walker's accumulator. Every used step is counted in
// both orientations — (x, y) and (y, x) — mirroring the exact computation,
// so the per-walker sums stay symmetric and the pooled coefficient uses the
// identical algebra.
type assortWalker struct {
	// Degree variant: symmetric Pearson sums (sumX == sumY and
	// sumX2 == sumY2 by the two-orientation counting, kept once).
	n, sumXY, sumX, sumX2 float64
	// Label variant: same-label endpoint count, total endpoint count and
	// the endpoint label distribution.
	same, total float64
	dist        map[graph.Label]float64
}

// assortVisitor streams a trajectory's steps into per-walker mixing sums.
type assortVisitor struct {
	t     *Trajectory
	label bool
	lr    LabelReader

	walkers []assortWalker
	cur     *assortWalker
	// prevDeg is the degree of the current walker's previous node (the
	// degree variant's x); -1 when unknown (first step without a recorded
	// start).
	prevDeg int
	skipped int
}

// newAssortVisitor builds the streaming aggregator for one variant.
func newAssortVisitor(t *Trajectory, variant string) (*assortVisitor, error) {
	v := &assortVisitor{t: t, label: variant == "label"}
	if v.label {
		v.lr = t.Labels()
		if v.lr == nil {
			return nil, fmt.Errorf("core: assortativity label variant needs bound labels (Trajectory.BindLabels)")
		}
	}
	v.walkers = make([]assortWalker, 0, t.NumWalkers())
	return v, nil
}

// BeginWalker implements TrajectoryVisitor.
func (v *assortVisitor) BeginWalker(w, n int) error {
	v.walkers = append(v.walkers, assortWalker{})
	v.cur = &v.walkers[len(v.walkers)-1]
	if v.label {
		v.cur.dist = make(map[graph.Label]float64)
		return nil
	}
	v.prevDeg = -1
	if v.t.HasStarts() {
		v.prevDeg = v.t.StartDegree(w)
	}
	return nil
}

// VisitStep implements TrajectoryVisitor.
func (v *assortVisitor) VisitStep(i int) error {
	if v.label {
		lu := firstLabelOf(v.lr, v.t.StepPrev(i))
		lv := firstLabelOf(v.lr, v.t.StepNode(i))
		if lu < 0 || lv < 0 {
			v.skipped++
			return nil
		}
		if lu == lv {
			v.cur.same += 2
		}
		v.cur.dist[lu]++
		v.cur.dist[lv]++
		v.cur.total += 2
		return nil
	}
	y := v.t.StepDegree(i)
	x := v.prevDeg
	v.prevDeg = y
	if x < 0 {
		v.skipped++
		return nil
	}
	fx, fy := float64(x), float64(y)
	v.cur.n += 2
	v.cur.sumXY += 2 * fx * fy
	v.cur.sumX += fx + fy
	v.cur.sumX2 += fx*fx + fy*fy
	return nil
}

// EndWalker implements TrajectoryVisitor.
func (v *assortVisitor) EndWalker(w int) error { return nil }

// Result implements TrajectoryVisitor.
func (v *assortVisitor) Result() (any, error) {
	variant := "degree"
	if v.label {
		variant = "label"
	}
	res := AssortativityResult{
		Variant:  variant,
		Skipped:  v.skipped,
		Samples:  v.t.Samples(),
		APICalls: v.t.APICalls,
		Walkers:  v.t.Walkers,
	}
	coeff, used, ok := v.pooled(-1)
	if !ok {
		return res, fmt.Errorf("core: assortativity (%s) has no usable edge samples among %d steps (%d skipped)",
			variant, res.Samples, v.skipped)
	}
	res.Coefficient = coeff
	res.Used = used
	if W := len(v.walkers); W > 1 {
		// Leave-one-walker-out jackknife, like sizeest: the coefficient is a
		// ratio statistic, so per-walker subsample estimates would be badly
		// biased at small per-walker counts; leave-one-out keeps each
		// estimate at nearly full sample size.
		lo := make([]float64, 0, W)
		for wi := 0; wi < W; wi++ {
			if c, _, ok := v.pooled(wi); ok {
				lo = append(lo, c)
			}
		}
		res.CI = jackknifeCoeffCI(coeff, lo)
	}
	return res, nil
}

// pooled computes the coefficient over every walker except skip (-1 pools
// all). ok is false when no variance/mass survives.
func (v *assortVisitor) pooled(skip int) (coeff float64, used int, ok bool) {
	if v.label {
		var same, total float64
		dist := make(map[graph.Label]float64)
		for wi := range v.walkers {
			if wi == skip {
				continue
			}
			wk := &v.walkers[wi]
			same += wk.same
			total += wk.total
			for l, c := range wk.dist {
				dist[l] += c
			}
		}
		if total == 0 {
			return 0, 0, false
		}
		var expected float64
		for _, c := range dist {
			p := c / total
			expected += p * p
		}
		if expected >= 1 {
			// Single-label population: mixing is undefined; report 0 like
			// the exact computation.
			return 0, int(total / 2), true
		}
		return (same/total - expected) / (1 - expected), int(total / 2), true
	}
	var n, sumXY, sumX, sumX2 float64
	for wi := range v.walkers {
		if wi == skip {
			continue
		}
		wk := &v.walkers[wi]
		n += wk.n
		sumXY += wk.sumXY
		sumX += wk.sumX
		sumX2 += wk.sumX2
	}
	if n == 0 {
		return 0, 0, false
	}
	mean := sumX / n
	cov := sumXY/n - mean*mean
	varX := sumX2/n - mean*mean
	if varX <= 0 {
		// Regular graph: no degree variation, coefficient defined as 0.
		return 0, int(n / 2), true
	}
	return cov / varX, int(n / 2), true
}

// jackknifeCoeffCI builds a level-ciLevel interval around the pooled
// coefficient from leave-one-walker-out estimates.
func jackknifeCoeffCI(pooled float64, leaveOneOut []float64) CI {
	W := len(leaveOneOut)
	if W < 2 {
		return CI{Walkers: W}
	}
	mean := 0.0
	for _, c := range leaveOneOut {
		mean += c
	}
	mean /= float64(W)
	ss := 0.0
	for _, c := range leaveOneOut {
		d := c - mean
		ss += d * d
	}
	se := math.Sqrt(float64(W-1) / float64(W) * ss)
	z := math.Sqrt2 * math.Erfinv(ciLevel)
	return CI{
		Low:     pooled - z*se,
		High:    pooled + z*se,
		StdErr:  se,
		Level:   ciLevel,
		Walkers: W,
	}
}

// firstLabelOf returns u's first label through the bound reader, or -1 when
// unlabeled — the same convention as the exact computation.
func firstLabelOf(lr LabelReader, u graph.Node) graph.Label {
	ls := lr.Labels(u)
	if len(ls) == 0 {
		return -1
	}
	return ls[0]
}

// assortTask is the registered task. Result type: AssortativityResult.
type assortTask struct{ variant string }

// Kind implements EstimationTask.
func (assortTask) Kind() string { return "assortativity" }

// NewVisitor implements EstimationTask.
func (a assortTask) NewVisitor(t *Trajectory) (TrajectoryVisitor, error) {
	return newAssortVisitor(t, a.variant)
}

func init() {
	RegisterTask(TaskSpec{
		Kind: "assortativity",
		NewTask: func(p TaskParams) (EstimationTask, error) {
			variant := p.Variant
			if variant == "" {
				variant = "degree"
			}
			if variant != "degree" && variant != "label" {
				return nil, fmt.Errorf("core: task kind \"assortativity\" variant must be \"degree\" or \"label\", got %q", p.Variant)
			}
			return assortTask{variant: variant}, nil
		},
	})
}
