package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/walk"
)

// This file holds the package's one sampling loop. RecordTrajectory (every
// walker of its fleet), Recorder.Extend, NeighborSample and
// NeighborExploration all walk through walkerRecording.run; the estimators
// differ from a plain recording only in how the walk is billed (see
// billing), never in the walk itself.
//
// Each iteration moves the walker one step and then buys the arrived-at
// node's friend list, which the next step leaves from for free (a
// crawl-cache hit). The recording therefore stores every list a replay of
// any task reads, and the start list prepays the first step's fetch, so a
// plain recording bills exactly what a live ExploreFree NeighborExploration
// walk bills: one call per distinct node the walk stands on.

// billing is the charging rule of one recording. The zero value is the plain
// rule of RecordTrajectory.
type billing struct {
	// lookAhead is NeighborSample's rule. A live NeighborSample walk fetches
	// a friend list only to leave the node, so the list the recording buys
	// ahead for the walker's current arrival is not yet the estimator's
	// spend: budget checks and the reported bill leave it out, and a failed
	// purchase surfaces only when the walk steps on from that node, where the
	// live walk would have made the same fetch.
	lookAhead bool
	// cost and pair are NeighborExploration's rule: a step onto a node that
	// carries a label of pair, at the node's first exploration per walker,
	// pays the cost model's surcharge inside the loop, so it counts against
	// the budget the way a live exploration does.
	cost CostModel
	pair graph.LabelPair
}

// walkerRecording is one walker's recording in progress.
type walkerRecording struct {
	api   osn.API
	w     walk.Walker[graph.Node]
	ctx   context.Context
	bill  billing
	start TrajStart
	steps []TrajStep
	// ahead is what buying the current arrival's friend list charged, and
	// deferred is that purchase's error (look-ahead rule only).
	ahead    int64
	deferred error
	// explored marks the nodes whose exploration surcharge this walker paid;
	// nil under ExploreFree, which charges none.
	explored graph.NodeSet
}

// newWalkerRecording starts recording w from its current node, buying that
// node's friend list: the charge the first step would otherwise pay.
func newWalkerRecording(api osn.API, w walk.Walker[graph.Node], ctx context.Context, bill billing, capHint int) (*walkerRecording, error) {
	r := &walkerRecording{api: api, w: w, ctx: ctx, bill: bill, steps: make([]TrajStep, 0, capHint)}
	if bill.cost != ExploreFree {
		r.explored = graph.NewNodeSet(api.NumNodes())
	}
	u := w.Current()
	d, ns, err := r.buy(u)
	if err != nil {
		return nil, fmt.Errorf("core: recording start node %d: %w", u, err)
	}
	r.start = TrajStart{Node: u, Degree: d, Neighbors: ns}
	return r, nil
}

// buy fetches u's friend list, holding the charge and any error apart under
// the look-ahead rule.
func (r *walkerRecording) buy(u graph.Node) (int, []graph.Node, error) {
	before := r.api.Calls()
	d, err := r.api.Degree(u)
	var ns []graph.Node
	if err == nil {
		ns, err = r.api.Neighbors(u) // crawl-cache hit after Degree: free
	}
	if r.bill.lookAhead {
		r.ahead, r.deferred = r.api.Calls()-before, err
		return d, ns, nil
	}
	return d, ns, err
}

// calls is the walker's bill so far under its rule.
func (r *walkerRecording) calls() int64 { return r.api.Calls() - r.ahead }

// run takes up to maxSteps more steps. A positive budget stops the walk
// before a step once the bill reaches it, but only after the first step, so
// a budget the start purchase consumed still records a sample (the same
// one-iteration overshoot the budget checks have always allowed). run
// returns the error that ended the walk early; osn.ErrBudgetExhausted is a
// Recorder whose armed meter ran out, a normal stop (see Recorder.Extend).
// Cancellation is polled on the Done channel, as in walk.BurninCtx.
func (r *walkerRecording) run(maxSteps int, budget int64) error {
	done := r.ctx.Done()
	for n := 0; n < maxSteps; n++ {
		select {
		case <-done:
			return r.ctx.Err()
		default:
		}
		if budget > 0 && len(r.steps) > 0 && r.calls() >= budget {
			return nil
		}
		if err := r.deferred; err != nil {
			r.ahead, r.deferred = 0, nil // the live walk paid for the failed fetch here
			return err
		}
		prev := r.w.Current()
		cur, err := r.w.Step()
		if err != nil {
			return err
		}
		d, ns, err := r.buy(cur)
		if err != nil {
			return err
		}
		if err := r.surcharge(cur, d); err != nil {
			return err
		}
		r.steps = append(r.steps, TrajStep{Prev: prev, Node: cur, Degree: d, Neighbors: ns})
	}
	return nil
}

// surcharge bills u's exploration under the cost model: once per walker per
// node carrying a target label. ExplorePerNeighbor charges all d(u) friends.
func (r *walkerRecording) surcharge(u graph.Node, d int) error {
	pair := r.bill.pair
	if r.explored == nil || r.explored.Has(u) || !r.api.HasLabel(u, pair.T1) && !r.api.HasLabel(u, pair.T2) {
		return nil
	}
	r.explored.Add(u)
	n := int64(1)
	if r.bill.cost == ExplorePerNeighbor {
		n = int64(d)
	}
	if err := r.api.ChargeFlat(n); err != nil {
		return fmt.Errorf("core: billing exploration of node %d: %w", u, err)
	}
	return nil
}

// RecordTrajectory runs one burned-in sampling walk (a fleet of them when
// opts.Walkers >= 2) and records it as a reusable Trajectory. k is the number
// of samples, or the API-call budget when opts.BudgetDriven is set.
// Exploration is never billed during recording (the ExploreFree reading of
// Algorithm 2): the friend lists the walk already fetched carry the labels a
// replay needs, whatever the pair.
func RecordTrajectory(s *osn.Session, k int, opts Options) (*Trajectory, error) {
	return record(s, k, opts, billing{})
}

// record is RecordTrajectory under any billing rule. walk.RunFleet drives
// the walk: one walker on opts.Rng by default, or opts.Walkers walkers on
// streams rooted at opts.Seed. Each walker runs walkerRecording.run against
// its share of k, metered by its own osn.Meter, so for a fixed seed the
// recorded streams are independent of scheduling. The meters are uncapped
// (budget shares are enforced by run's budget check), so a walker stops
// early only on a source error or a cancelled context.
func record(s *osn.Session, k int, opts Options, bill billing) (*Trajectory, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: sampling needs k > 0, got %d", k)
	}
	walkers := max(opts.Walkers, 1)
	recs := make([]*walkerRecording, min(walkers, k)) // RunFleet clamps the fleet to k
	calls, err := walk.RunFleet(walk.FleetConfig[graph.Node]{
		Session:      s,
		Ctx:          opts.Ctx,
		Rng:          opts.Rng,
		Seed:         opts.Seed,
		Walkers:      walkers,
		K:            k,
		BudgetDriven: opts.BudgetDriven,
		BurnIn:       opts.BurnIn,
		NewWalker: func(r *walk.FleetRun[graph.Node]) (walk.Walker[graph.Node], error) {
			start, err := startNode(r.Meter, opts.Start, r.Rng)
			if err != nil {
				return nil, err
			}
			return newWalk(r.Meter, opts, start, r.Rng)
		},
		Sample: func(r *walk.FleetRun[graph.Node]) error {
			// A plain step buys at most one friend list, so a walk that
			// spends its share takes at least that many steps, and at most
			// the spin cap.
			capHint := min(max(r.Quota, int(r.Budget)), r.MaxIters())
			rec, err := newWalkerRecording(r.Meter, r.W, r.Ctx, bill, capHint)
			if err != nil {
				return err
			}
			recs[r.ID] = rec
			if err := rec.run(r.MaxIters(), r.Budget); err != nil {
				return fmt.Errorf("core: recording step %d: %w", len(rec.steps), err)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return newRecording(s, recs, calls, opts), nil
}

// newRecording assembles finished walker recordings into a Trajectory.
// calls[w] is walker w's metered spend; the trajectory bills it under the
// recording's rule.
func newRecording(s *osn.Session, recs []*walkerRecording, calls []int64, opts Options) *Trajectory {
	steps := make([][]TrajStep, len(recs))
	starts := make([]TrajStart, len(recs))
	var total int64
	for w, r := range recs {
		steps[w], starts[w] = r.steps, r.start
		calls[w] -= r.ahead
		total += calls[w]
	}
	t := NewTrajectoryFromSteps(steps, starts)
	t.Walkers = len(recs)
	t.APICalls = total
	t.PerWalkerCalls = calls
	t.NumNodes = s.NumNodes()
	t.NumEdges = s.NumEdges()
	t.ThinGap = opts.ThinGap
	t.BurnIn = opts.BurnIn
	t.BudgetDriven = opts.BudgetDriven
	t.BindLabels(s)
	return t
}

// Recorder is an incremental serial trajectory recorder: burn-in is paid
// once at construction, and each Extend call continues the same walk,
// appending to the recorded stream. A hard API-call budget (enforced by an
// osn.Meter armed after burn-in) bounds the cumulative sampling cost: unit
// charges are refused once the budget is spent, so the recording never
// overshoots it. The doubling workflow of repro.EstimateToPrecision is the
// intended caller.
type Recorder struct {
	s    *osn.Session
	m    *osn.Meter
	opts Options
	r    *walkerRecording
}

// NewRecorder builds a serial recorder over s: it picks a start node, burns
// in (uncharged, per the paper's accounting), then arms the sampling budget
// (0 = unlimited). opts.Walkers is ignored — a Recorder is one walker.
func NewRecorder(s *osn.Session, budget int64, opts Options) (*Recorder, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if budget < 0 {
		return nil, fmt.Errorf("core: negative recorder budget %d", budget)
	}
	m := s.Meter(0) // unlimited during burn-in
	start, err := startNode(m, opts.Start, opts.Rng)
	if err != nil {
		return nil, err
	}
	w, err := newWalk(m, opts, start, opts.Rng)
	if err != nil {
		return nil, err
	}
	if err := walk.BurninCtx[graph.Node](opts.ctx(), w, opts.BurnIn); err != nil {
		return nil, fmt.Errorf("core: burn-in: %w", err)
	}
	m.Flush() // settle deferred burn-in debits before re-arming
	m.Reset(budget)
	r, err := newWalkerRecording(m, w, opts.ctx(), billing{}, 0)
	if err != nil {
		return nil, err
	}
	return &Recorder{s: s, m: m, opts: opts, r: r}, nil
}

// Extend continues the walk for up to k more samples, stopping early when
// the armed budget runs out. It returns how many samples were appended and
// whether the budget stopped the walk (which is a normal completion, not an
// error).
func (r *Recorder) Extend(k int) (added int, exhausted bool, err error) {
	before := len(r.r.steps)
	err = r.r.run(k, 0)
	added = len(r.r.steps) - before
	if errors.Is(err, osn.ErrBudgetExhausted) {
		return added, true, nil
	}
	if err != nil {
		return added, false, fmt.Errorf("core: Recorder step: %w", err)
	}
	return added, false, nil
}

// Calls returns the sampling API calls billed so far (burn-in excluded).
func (r *Recorder) Calls() int64 {
	r.m.Flush() // keep the session's global counter settled for observers
	return r.m.Calls()
}

// Samples returns the cumulative recorded sample count.
func (r *Recorder) Samples() int { return len(r.r.steps) }

// Trajectory snapshots the recording so far as a replayable Trajectory. The
// snapshot copies the recorded rows into fresh columns (an O(samples) copy),
// so it stays valid — and immutable — across later Extend calls.
func (r *Recorder) Trajectory() *Trajectory {
	return newRecording(r.s, []*walkerRecording{r.r}, []int64{r.Calls()}, r.opts)
}
