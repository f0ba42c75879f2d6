package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/store"
)

// EstimateBatch answers several queries against ONE shared trajectory: all
// queries must resolve to the same (budget, walkers, seed) configuration
// (zero fields inherit the engine defaults), the trajectory is acquired
// once, and each query's task replays over it. Mixing kinds is the point —
// the kind is not part of the trajectory key — and the recording bill is
// split across the batch members on top of the usual co-triggering split.
// A per-query replay failure sets that answer's Err (wrapping
// ErrEstimation) without failing the batch; invalid queries fail the whole
// batch before any API spend.
func (e *Engine) EstimateBatch(ctx context.Context, qs []Query) ([]*Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadQuery)
	}
	kinds := make([]string, len(qs))
	tasks := make([]core.EstimationTask, len(qs))
	key := e.resolveKey(qs[0])
	var maxCost int64
	for i, q := range qs {
		kind, task, err := buildTask(q)
		if err != nil {
			if len(qs) > 1 {
				err = fmt.Errorf("batch query %d: %w", i, err)
			}
			return nil, err
		}
		kinds[i], tasks[i] = kind, task
		if e.resolveKey(q) != key {
			return nil, fmt.Errorf("%w: batch query %d resolves to a different trajectory configuration than query 0 — a batch shares one walk", ErrBadQuery, i)
		}
		if q.MaxCost > 0 && (maxCost == 0 || q.MaxCost < maxCost) {
			maxCost = q.MaxCost
		}
	}

	ent, hit, err := e.acquire(ctx, Query{MaxCost: maxCost}, key)
	if err != nil {
		return nil, err
	}
	if ent.err != nil {
		return nil, ent.err
	}

	// One fused pass over the trajectory's step columns answers the whole
	// batch: every streaming task's aggregators ride the same column sweep,
	// and per-query replay failures drop out without disturbing the rest.
	outs, errs := core.RunTasksFused(ent.traj, tasks)
	key.GraphVersion = ent.traj.GraphVersion // the serving file's spelling
	storeName := key.Filename()
	answers := make([]*Answer, len(qs))
	for i := range qs {
		out := outs[i]
		if errs[i] != nil {
			out = nil
		}
		ans := e.assembleAnswer(kinds[i], out, ent, hit, len(qs))
		ans.StoreKey = storeName
		answers[i] = ans
		if errs[i] != nil {
			// Replay failures are per-query: the shared trajectory still
			// answers the rest of the batch. A failed query is not counted
			// as served.
			ans.Err = fmt.Errorf("%w: kind %q: %v", ErrEstimation, kinds[i], errs[i])
			continue
		}
		e.countQuery(kinds[i], ans)
	}
	return answers, nil
}

// Estimate answers one query — an EstimateBatch of one: it resolves the
// query's task kind through the estimation-task registry, then records a
// trajectory, joins one in flight, reloads a persisted one, or replays a
// cached one as the cache dictates, and finally replays the task over it.
// Parameter validation happens before any API spend; a replay failure is
// returned as the call's error (wrapping ErrEstimation).
func (e *Engine) Estimate(ctx context.Context, q Query) (*Answer, error) {
	answers, err := e.EstimateBatch(ctx, []Query{q})
	if err != nil {
		return nil, err
	}
	if answers[0].Err != nil {
		return nil, answers[0].Err
	}
	return answers[0], nil
}

// buildTask validates a query's task parameters through the registry and
// returns the resolved kind and replayable task.
func buildTask(q Query) (string, core.EstimationTask, error) {
	kind := q.Kind
	if kind == "" {
		kind = "pairs"
	}
	spec, ok := core.LookupTask(kind)
	if !ok {
		return "", nil, fmt.Errorf("%w: unknown kind %q (have %v)", ErrBadQuery, kind, core.TaskKinds())
	}
	task, err := spec.NewTask(core.TaskParams{Pairs: q.Pairs, Motif: q.Motif, Top: q.Top, Variant: q.Variant})
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if q.Budget < 0 || q.Walkers < 0 || q.MaxCost < 0 {
		return "", nil, fmt.Errorf("%w: negative Budget/Walkers/MaxCost", ErrBadQuery)
	}
	return kind, task, nil
}

// resolveKey maps a query onto its trajectory cache key, applying the
// engine defaults.
func (e *Engine) resolveKey(q Query) store.Key {
	key := store.Key{Budget: e.cfg.Budget, Walkers: e.cfg.Walkers, Seed: e.cfg.Seed}
	if q.Budget > 0 {
		key.Budget = q.Budget
	}
	if q.Walkers > 0 {
		key.Walkers = q.Walkers
	}
	if q.Seed != 0 {
		key.Seed = q.Seed
	}
	return key
}

// assembleAnswer wraps one task's replay result in the answer envelope;
// members is the size of the query's batch.
func (e *Engine) assembleAnswer(kind string, out any, ent *entry, hit bool, members int) *Answer {
	ans := &Answer{
		Kind:         kind,
		APICalls:     ent.traj.APICalls,
		CacheHit:     hit || ent.fromStore,
		Walkers:      ent.traj.Walkers,
		Samples:      ent.traj.Samples(),
		GraphVersion: ent.traj.GraphVersion,
		StaleSteps:   ent.staleSteps,
	}
	if !ans.CacheHit {
		// The batch occupied one seat in the co-triggering split; divide
		// that share across its members (truncated, like the split
		// itself).
		ans.SharedBy = ent.sharers
		ans.Charged = ent.traj.APICalls / int64(ent.sharers) / int64(members)
	}
	if prs, isPairs := out.([]core.PairEstimates); isPairs {
		ans.Pairs = make([]PairAnswer, len(prs))
		for i := range prs {
			ans.Pairs[i] = PairAnswer{Pair: prs[i].Pair, Estimates: prs[i].Estimates()}
		}
	} else {
		ans.Result = out
	}
	return ans
}

// countQuery folds one answered query into the stats.
func (e *Engine) countQuery(kind string, ans *Answer) {
	e.mu.Lock()
	e.stats.Queries++
	if e.stats.TasksByKind == nil {
		e.stats.TasksByKind = make(map[string]int64)
	}
	e.stats.TasksByKind[kind]++
	if ans.CacheHit {
		e.stats.CacheHits++
	}
	e.mu.Unlock()
}
