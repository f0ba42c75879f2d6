package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
)

// This file is the estimation-task registry, the dispatch point of the
// one-trajectory/every-workload architecture. A recorded Trajectory is the
// expensive artifact — its API calls are the paper's scarce resource — while
// every estimator in this repository is pure arithmetic over the recorded
// steps. An EstimationTask packages that arithmetic behind a kind name, so
// upper layers (the HTTP service, the public repro API, the CLIs) answer
// heterogeneous questions — label-pair counts, graph size, a label census,
// motif counts — from one cached walk by registry lookup instead of
// hand-rolled walk loops.
//
// Tasks for the core workloads ("pairs", "census") are registered here;
// "size" and "motif" register themselves from internal/sizeest and
// internal/motif so the dependency arrow keeps pointing at core.

// TaskParams carries the kind-specific parameters of one estimation task.
// One flat struct serves every registered kind — each kind documents the
// fields it reads and ignores the rest — so transport layers (HTTP, CLI)
// can decode parameters without per-kind schemas.
type TaskParams struct {
	// Pairs are the queried label pairs. Required for kind "pairs";
	// optional for kind "motif" (absent means the unlabeled count).
	Pairs []graph.LabelPair
	// Motif selects the motif shape for kind "motif": "wedges" or
	// "triangles".
	Motif string
	// Top bounds how many census rows kind "census" returns; 0 returns all.
	Top int
	// ThinGap overrides the collision-spacing gap of kind "size"; 0 uses
	// the 2.5%-of-samples default.
	ThinGap int
	// Variant selects the mixing measure of kind "assortativity": "degree"
	// (the default when empty) or "label".
	Variant string
}

// EstimationTask consumes a recorded trajectory and produces a typed result.
// Implementations must be pure replays: they read the trajectory's steps and
// the free label surface, never the metered API, so any number of tasks can
// share one recording at zero marginal API cost.
type EstimationTask interface {
	// Kind returns the registry key the task was built for.
	Kind() string
	// NewVisitor builds the task's streaming aggregator over t. The fused
	// driver (RunTasksFused) feeds it t's steps and returns its Result, the
	// kind's result type (documented on the registering package).
	NewVisitor(t *Trajectory) (TrajectoryVisitor, error)
}

// TaskSpec is one registry row: a kind name plus its task constructor.
type TaskSpec struct {
	// Kind is the registry key, e.g. "pairs" or "size".
	Kind string
	// NewTask validates params and builds a task instance. Parameter
	// errors are client errors (the HTTP layer maps them to 400).
	NewTask func(p TaskParams) (EstimationTask, error)
}

var (
	taskMu       sync.RWMutex
	taskRegistry = make(map[string]TaskSpec)
)

// RegisterTask adds a task kind to the registry. It panics on an empty kind
// or a duplicate registration — both are programmer errors at init time.
func RegisterTask(spec TaskSpec) {
	if spec.Kind == "" || spec.NewTask == nil {
		panic("core: RegisterTask needs a kind and a constructor")
	}
	taskMu.Lock()
	defer taskMu.Unlock()
	if _, dup := taskRegistry[spec.Kind]; dup {
		panic(fmt.Sprintf("core: task kind %q registered twice", spec.Kind))
	}
	taskRegistry[spec.Kind] = spec
}

// LookupTask returns the registered spec for kind.
func LookupTask(kind string) (TaskSpec, bool) {
	taskMu.RLock()
	defer taskMu.RUnlock()
	spec, ok := taskRegistry[kind]
	return spec, ok
}

// TaskKinds lists the registered kinds in sorted order.
func TaskKinds() []string {
	taskMu.RLock()
	defer taskMu.RUnlock()
	kinds := make([]string, 0, len(taskRegistry))
	for k := range taskRegistry {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// RunTask builds the kind's task from params and replays it over t — the
// one-call convenience the CLIs and benchmarks use.
func RunTask(t *Trajectory, kind string, p TaskParams) (any, error) {
	spec, ok := LookupTask(kind)
	if !ok {
		return nil, fmt.Errorf("core: unknown task kind %q (registered: %v)", kind, TaskKinds())
	}
	task, err := spec.NewTask(p)
	if err != nil {
		return nil, err
	}
	return replayOne(t, task)
}

// replayOne replays a single task through the fused driver.
func replayOne(t *Trajectory, task EstimationTask) (any, error) {
	outs, errs := RunTasksFused(t, []EstimationTask{task})
	return outs[0], errs[0]
}

// pairsTask is the label-pair workload — the paper's estimators for P pairs
// off one walk. Result type: []PairEstimates.
type pairsTask struct {
	pairs []graph.LabelPair
	// only, when set, runs one estimator and reads labels through the
	// LabelReader instead of building mask columns: the one-pair replays
	// behind NeighborSample and NeighborExploration read each step's labels
	// once, so the masks would cost more than they save.
	only estimators
}

// estimators selects which of the paper's algorithms a pairs replay runs.
type estimators uint8

const (
	bothEstimators estimators = iota
	onlyNS
	onlyNE
)

func (pairsTask) Kind() string { return "pairs" }

// censusTask is the discover-all-pairs workload. Result type: CensusResult.
type censusTask struct{ top int }

func (censusTask) Kind() string { return "census" }

func init() {
	RegisterTask(TaskSpec{
		Kind: "pairs",
		NewTask: func(p TaskParams) (EstimationTask, error) {
			if len(p.Pairs) == 0 {
				return nil, fmt.Errorf("core: task kind \"pairs\" needs at least one label pair")
			}
			return pairsTask{pairs: p.Pairs}, nil
		},
	})
	RegisterTask(TaskSpec{
		Kind: "census",
		NewTask: func(p TaskParams) (EstimationTask, error) {
			if p.Top < 0 {
				return nil, fmt.Errorf("core: task kind \"census\" needs Top >= 0, got %d", p.Top)
			}
			return censusTask{top: p.Top}, nil
		},
	})
}
