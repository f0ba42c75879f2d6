package repro

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/motif"
	"repro/internal/sizeest"
	"repro/internal/walk"
)

// This file is the public face of the estimation-task registry: one
// recorded random walk answers heterogeneous questions — label-pair counts,
// graph size, a label-pair census, motif counts — because every estimator
// in this library is pure arithmetic over the recorded trajectory while the
// walk's API calls are the scarce resource. EstimateBatch records once and
// dispatches any mix of task kinds through the registry; EstimateSize and
// CountMotifs are the single-task conveniences built on the same machinery,
// and cmd/serve exposes it over HTTP (see docs/API.md).

// TaskKinds lists the registered estimation-task kinds ("assortativity",
// "census", "motif", "pairs", "size"), sorted.
func TaskKinds() []string { return core.TaskKinds() }

// Motif shapes accepted by CountMotifs, EstimateBatch and the HTTP API.
const (
	MotifWedges    = motif.ShapeWedges
	MotifTriangles = motif.ShapeTriangles
)

// AssortativityResult is the kind "assortativity" answer: the degree or
// label mixing coefficient estimated from the shared walk.
type AssortativityResult = core.AssortativityResult

// TaskRequest is one question of a batch: a task kind plus its parameters.
type TaskRequest struct {
	// Kind selects the estimation task; empty means "pairs".
	Kind string
	// Pairs are the queried label pairs. Required for kind "pairs";
	// optional for kind "motif" (absent = the unlabeled count).
	Pairs []LabelPair
	// Motif is the motif shape for kind "motif": MotifWedges or
	// MotifTriangles.
	Motif string
	// Top bounds how many census rows kind "census" returns; 0 returns all.
	Top int
	// Variant selects the mixing measure for kind "assortativity": "degree"
	// (the default when empty) or "label".
	Variant string
}

// TaskAnswer is one batch answer; exactly one result field is populated,
// matching the request kind — or Err is set when that task's replay could
// not produce an estimate from the shared walk.
type TaskAnswer struct {
	// Kind echoes the task kind.
	Kind string
	// Pairs is set for kind "pairs".
	Pairs []PairResult
	// Size is set for kind "size".
	Size *SizeResult
	// Census is set for kind "census" (descending by estimate).
	Census []PairEstimate
	// Motif is set for kind "motif".
	Motif *MotifResult
	// Assortativity is set for kind "assortativity".
	Assortativity *AssortativityResult
	// Err reports a per-task replay failure (e.g. a size estimate whose
	// walk saw no collisions). Other answers of the batch are unaffected:
	// the walk is shared, the failures are not. Invalid requests (unknown
	// kind, bad parameters) are instead rejected by EstimateBatch itself,
	// before the walk is paid for.
	Err error
}

// BatchResult reports one EstimateBatch run: every answer was replayed from
// the same trajectory, so APICalls is paid once for the whole batch.
type BatchResult struct {
	// Answers holds one answer per request, in request order.
	Answers []TaskAnswer
	// APICalls is the shared walk's total charged API calls.
	APICalls int64
	// Samples is the shared walk's sample count.
	Samples int
	// BurnIn is the burn-in that was applied.
	BurnIn int
	// Walkers is the concurrent walker count of the recording.
	Walkers int
}

// EstimateBatch answers a heterogeneous batch of estimation tasks from ONE
// shared random walk: the walk is recorded once (burn-in paid once) and
// each request is dispatched through the estimation-task registry over the
// recorded trajectory. A batch of P pair queries, a size estimate, a census
// and a motif count therefore costs the API calls of a single estimate.
// The recording is derived exactly like EstimateManyPairs' for the same
// options, and single-walker task results are bit-identical to the
// corresponding standalone runs at the same seed.
func EstimateBatch(g *Graph, opts MultiPairOptions, reqs ...TaskRequest) (*BatchResult, error) {
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		return nil, fmt.Errorf("repro: graph has no edges to sample")
	}
	// Validate every request — and build its task — before paying for the
	// walk; the same instances are replayed below.
	kinds, tasks, err := buildTasks(reqs)
	if err != nil {
		return nil, err
	}
	traj, err := recordShared(g, opts)
	if err != nil {
		return nil, err
	}
	return replayTasks(traj, kinds, tasks), nil
}

// buildTasks validates a request list through the estimation-task registry
// and returns the resolved kinds and replayable task instances.
func buildTasks(reqs []TaskRequest) ([]string, []core.EstimationTask, error) {
	if len(reqs) == 0 {
		return nil, nil, fmt.Errorf("repro: a batch needs at least one task request")
	}
	kinds := make([]string, len(reqs))
	tasks := make([]core.EstimationTask, len(reqs))
	for i, req := range reqs {
		kind := req.Kind
		if kind == "" {
			kind = "pairs"
		}
		spec, ok := core.LookupTask(kind)
		if !ok {
			return nil, nil, fmt.Errorf("repro: unknown task kind %q (have %v)", kind, core.TaskKinds())
		}
		task, err := spec.NewTask(taskParams(req))
		if err != nil {
			return nil, nil, fmt.Errorf("repro: request %d: %w", i, err)
		}
		kinds[i] = kind
		tasks[i] = task
	}
	return kinds, tasks, nil
}

// replayTasks dispatches every built task over one shared trajectory — the
// replay half of EstimateBatch, also reached by ReplayBatch for recorded or
// loaded trajectories. All tasks ride ONE fused pass over the trajectory's
// step columns (core.RunTasksFused): N questions cost one column sweep, not
// N full replays, with bit-identical results.
func replayTasks(traj *core.Trajectory, kinds []string, tasks []core.EstimationTask) *BatchResult {
	res := &BatchResult{
		Answers:  make([]TaskAnswer, 0, len(tasks)),
		APICalls: traj.APICalls,
		Samples:  traj.Samples(),
		BurnIn:   traj.BurnIn,
		Walkers:  traj.Walkers,
	}
	outs, errs := core.RunTasksFused(traj, tasks)
	for i := range tasks {
		if errs[i] != nil {
			// A replay failure is per-task: the shared walk still answers
			// the other requests.
			res.Answers = append(res.Answers, TaskAnswer{
				Kind: kinds[i],
				Err:  fmt.Errorf("repro: request %d (%s): %w", i, kinds[i], errs[i]),
			})
			continue
		}
		ans, err := taskAnswer(kinds[i], outs[i])
		if err != nil {
			res.Answers = append(res.Answers, TaskAnswer{Kind: kinds[i], Err: err})
			continue
		}
		res.Answers = append(res.Answers, ans)
	}
	return res
}

// taskParams maps a public request onto the registry's parameter struct.
func taskParams(req TaskRequest) core.TaskParams {
	return core.TaskParams{Pairs: req.Pairs, Motif: req.Motif, Top: req.Top, Variant: req.Variant}
}

// taskAnswer files a registry result under its kind's answer field.
func taskAnswer(kind string, out any) (TaskAnswer, error) {
	ans := TaskAnswer{Kind: kind}
	switch r := out.(type) {
	case []core.PairEstimates:
		ans.Pairs = r
	case sizeest.Result:
		ans.Size = &r
	case core.CensusResult:
		ans.Census = r.Pairs
	case motif.TaskResult:
		ans.Motif = &r
	case core.AssortativityResult:
		ans.Assortativity = &r
	default:
		return ans, fmt.Errorf("repro: task kind %q returned unexpected type %T", kind, out)
	}
	return ans, nil
}

// SizeOptions configures EstimateSize.
type SizeOptions struct {
	// Budget is the sample count as a fraction of the true |V| (only used
	// to size the walk; the estimator itself never reads |V|); 0 means 0.1.
	Budget float64
	// Samples overrides Budget with an absolute sample count when positive.
	Samples int
	// BurnIn is the walk burn-in in steps; 0 takes the mixing time T(1e-3)
	// that walk.BurnIn measures once per graph and adds a safety margin of
	// 10.
	BurnIn int
	// CollisionGap overrides the collision-spacing gap (0 = 2.5% of the
	// per-walker sample count, the Hardiman–Katzir default).
	CollisionGap int
	// Seed drives all randomness.
	Seed int64
	// Walkers splits the walk across concurrent walkers (0/1 = serial,
	// bit-identical to the historical single-walk estimator).
	Walkers int
	// Ctx cancels the run in flight; nil means context.Background().
	Ctx context.Context
}

// SizeResult reports one EstimateSize run: the |V| and |E| estimates, the
// harmonic-identity mean degree, the collision count behind |V| (treat
// fewer than ~10 as unreliable), the walk's samples, API calls, burn-in and
// walkers, and the between-walker intervals of multi-walker runs.
type SizeResult = sizeest.Result

// EstimateSize estimates |V| and |E| by random walk (Katzir et al.
// collision counting plus inverse-degree weighting) — the substrate behind
// the paper's assumption (2) for OSNs whose sizes are not published. It is
// the full-control companion of EstimateGraphSize, adding Walkers, Seed and
// Ctx options via the shared trajectory machinery.
func EstimateSize(g *Graph, opts SizeOptions) (SizeResult, error) {
	var res SizeResult
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		return res, fmt.Errorf("repro: graph has no edges to sample")
	}
	task, err := newTask("size", core.TaskParams{ThinGap: opts.CollisionGap})
	if err != nil {
		return res, err
	}
	k := opts.Samples
	if k <= 0 {
		budget := opts.Budget
		if budget <= 0 {
			budget = 0.1
		}
		k = int(budget * float64(g.NumNodes()))
		if k < 50 {
			k = 50
		}
	}
	burn := opts.BurnIn
	if burn <= 0 {
		steps, err := walk.MixingSteps(opts.Ctx, g)
		if err != nil {
			return res, err
		}
		burn = steps + 10
	}
	traj, err := record(opts.Ctx, g, k, burn, opts.Walkers, opts.Seed, "size/multiwalk")
	if err != nil {
		return res, err
	}
	outs, errs := core.RunTasksFused(traj, []core.EstimationTask{task})
	if errs[0] != nil {
		return res, errs[0]
	}
	return outs[0].(sizeest.Result), nil
}

// MotifRow is one motif answer: the estimate for one label pair, or the
// unlabeled (global) count when Pair is nil, with its between-walker
// interval on multi-walker runs.
type MotifRow = motif.TaskRow

// MotifResult reports one CountMotifs run: Shape is MotifWedges or
// MotifTriangles, Rows holds one answer per queried pair in query order (or
// a single pair-less row for the unlabeled count), and Samples, APICalls,
// BurnIn and Walkers describe the shared walk.
type MotifResult = motif.TaskResult

// CountMotifs estimates wedge or triangle counts — for any number of label
// pairs, or the unlabeled total when pairs is empty — from ONE random walk
// under the restricted access model, with Walkers/Seed/Ctx control via
// EstimateOptions. It dispatches through the estimation-task registry, so
// its single-walker per-pair results are bit-identical to
// EstimateLabeledMotif at the same seed.
func CountMotifs(g *Graph, shape string, pairs []LabelPair, opts EstimateOptions) (*MotifResult, error) {
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		return nil, fmt.Errorf("repro: graph has no edges to sample")
	}
	task, err := newTask("motif", core.TaskParams{Pairs: pairs, Motif: shape})
	if err != nil {
		return nil, err
	}
	k, burn, err := resolveWalkPlan(opts.Ctx, g, opts.Budget, opts.Samples, opts.BurnIn)
	if err != nil {
		return nil, err
	}
	traj, err := record(opts.Ctx, g, k, burn, opts.Walkers, opts.Seed, "motif/multiwalk")
	if err != nil {
		return nil, err
	}
	outs, errs := core.RunTasksFused(traj, []core.EstimationTask{task})
	if errs[0] != nil {
		return nil, errs[0]
	}
	r := outs[0].(motif.TaskResult)
	return &r, nil
}

// newTask builds the registered task of kind from p before its walk is
// paid for, so a bad parameter is rejected without recording anything.
func newTask(kind string, p core.TaskParams) (core.EstimationTask, error) {
	spec, ok := core.LookupTask(kind)
	if !ok {
		return nil, fmt.Errorf("repro: %s task not registered", kind)
	}
	task, err := spec.NewTask(p)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return task, nil
}

// resolveWalkPlan turns the public budget knobs into a concrete walk plan:
// samples overrides budget (a fraction of |V|, default 0.05), and a zero
// burn-in resolves to walk.BurnIn's default (the measured mixing time
// T(1e-3), minimum 10) through resolveBurnIn, which a cancelled ctx (nil
// means context.Background()) stops. EstimateTargetEdges, EstimateManyPairs,
// EstimateBatch, RecordTrajectory and CountMotifs (so EstimateLabeledMotif
// too) all derive their walks through this one function, so their walks
// agree for equal options.
func resolveWalkPlan(ctx context.Context, g *Graph, budget float64, samples, burnIn int) (k, burn int, err error) {
	k = samples
	if k <= 0 {
		if budget <= 0 {
			budget = 0.05
		}
		k = int(math.Round(budget * float64(g.NumNodes())))
		if k < 1 {
			k = 1
		}
	}
	if burn, err = resolveBurnIn(ctx, g, burnIn); err != nil {
		return 0, 0, err
	}
	return k, burn, nil
}

// resolveBurnIn returns burnIn when it is positive, and otherwise
// walk.BurnIn's default, measured under ctx.
func resolveBurnIn(ctx context.Context, g *Graph, burnIn int) (int, error) {
	if burnIn > 0 {
		return burnIn, nil
	}
	return walk.BurnIn(ctx, g)
}
