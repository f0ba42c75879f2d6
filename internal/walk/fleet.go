package walk

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/osn"
	"repro/internal/stats"
)

// FleetRun is one walker's handle inside a multi-walker estimate: its
// private RNG stream, its metered view of the shared session, and its slice
// of the work. Exactly one goroutine owns a FleetRun.
type FleetRun[N comparable] struct {
	// ID is the walker index in [0, Walkers); per-walker outputs are
	// collected into slot ID of caller-side slices.
	ID int
	// Rng is the walker's private stream, derived as
	// stats.Derive(seed, "walker/<ID>") (re-drawn when an earlier walker
	// already holds that seed) so trajectories are reproducible regardless
	// of scheduling.
	Rng *rand.Rand
	// Meter bills this walker's API calls against its share of the budget.
	Meter *osn.Meter
	// W is the walker chain, burned in and ready to sample.
	W Walker[N]
	// Quota is the walker's sample quota (sample-driven mode; 0 otherwise).
	Quota int
	// Budget is the walker's API-call budget (budget-driven mode; 0
	// otherwise).
	Budget int64
	// Ctx cancels the run; sampling loops must check it.
	Ctx context.Context
}

// Done reports whether the walker has consumed its share of the work, given
// how many samples it has retained so far.
func (r *FleetRun[N]) Done(samples int) bool {
	if r.Budget > 0 {
		return r.Meter.Calls() >= r.Budget
	}
	return samples >= r.Quota
}

// MaxIters bounds a budget-driven sampling loop: cache hits are free, so the
// walk may take many more steps than its budget, and the cap prevents
// spinning once the whole graph is cached (mirroring the serial paths).
func (r *FleetRun[N]) MaxIters() int {
	if r.Budget > 0 {
		return 50 * int(r.Budget)
	}
	return r.Quota
}

// FleetConfig describes a multi-walker run over one shared session.
type FleetConfig[N comparable] struct {
	// Session is the shared metered access handle; its accounting is reset
	// at the burn-in/sampling boundary, exactly like a serial run.
	Session *osn.Session
	// Ctx cancels the whole fleet; nil means Background.
	Ctx context.Context
	// Seed roots the per-walker RNG streams.
	Seed int64
	// Walkers is the fleet size (>= 1). RunFleet clamps it to K (when K >= 1)
	// so every walker gets a positive share of the work.
	Walkers int
	// K is the total sample count (sample-driven) or API budget
	// (budget-driven), split into near-equal per-walker shares.
	K int
	// BudgetDriven selects how K is interpreted.
	BudgetDriven bool
	// BurnIn is the per-walker burn-in in steps. Each walker burns in
	// independently (concurrently); burn-in charges are wiped before
	// sampling begins.
	BurnIn int
	// NewWalker builds walker r's chain at its start state, using r.Rng for
	// any random choice and r.Meter for any API access.
	NewWalker func(r *FleetRun[N]) (Walker[N], error)
	// Sample runs walker r's sampling loop, writing per-walker results into
	// caller-side slices at index r.ID. It must honor r.Done, r.MaxIters
	// and r.Ctx.
	Sample func(r *FleetRun[N]) error
}

// RunFleet executes a multi-walker estimate: every walker picks a start and
// burns in concurrently, an internal barrier resets the shared accounting
// (burn-in is not billed, per the paper), per-walker budgets are armed, and
// all walkers sample concurrently until each exhausts its share. The
// returned slice holds each walker's billed API calls (deterministic for a
// fixed seed; see osn.Meter).
//
// Each walker is one goroutine for its whole lifetime: it burns in, parks at
// the barrier, and resumes into sampling when released — one spawn wave per
// estimate instead of two, and the barrier itself is O(1) (epoch bumps, not
// O(|V|) wipes). Walkers exceeding the work (Walkers > K when K >= 1) are
// clamped away rather than silently given zero-share quotas, so the
// returned slice may be shorter than cfg.Walkers. On every exit path —
// including phase-1 errors — all meters are flushed first, so
// Session.Calls() and UniqueNodes() are settled whenever RunFleet returns.
func RunFleet[N comparable](cfg FleetConfig[N]) ([]int64, error) {
	if cfg.Walkers < 1 {
		return nil, fmt.Errorf("walk: fleet needs at least one walker, got %d", cfg.Walkers)
	}
	walkers := cfg.Walkers
	if cfg.K >= 1 && walkers > cfg.K {
		walkers = cfg.K // every walker must get a positive share
	}
	ctx, cancel := context.WithCancel(orBackground(cfg.Ctx))
	defer cancel()

	quotas := SplitQuota(cfg.K, walkers)
	seeds := walkerSeeds(cfg.Seed, walkers)
	runs := make([]*FleetRun[N], walkers)
	for i := range runs {
		r := &FleetRun[N]{
			ID:    i,
			Rng:   rand.New(rand.NewSource(seeds[i])),
			Meter: cfg.Session.Meter(0), // unlimited during burn-in
			Ctx:   ctx,
		}
		if cfg.BudgetDriven {
			r.Budget = int64(quotas[i])
		} else {
			r.Quota = quotas[i]
		}
		runs[i] = r
	}

	errs := make([]error, walkers)
	var wg, burnt sync.WaitGroup
	release := make(chan struct{})
	sample := false // written before close(release), read after <-release

	for _, r := range runs {
		wg.Add(1)
		burnt.Add(1)
		go func(r *FleetRun[N]) {
			defer wg.Done()
			w, err := cfg.NewWalker(r)
			if err != nil {
				errs[r.ID] = fmt.Errorf("walk: walker %d start: %w", r.ID, err)
				cancel()
			} else if err := BurninCtx[N](ctx, w, cfg.BurnIn); err != nil {
				errs[r.ID] = fmt.Errorf("walk: walker %d burn-in: %w", r.ID, err)
				cancel()
			} else {
				r.W = w
			}
			// Barrier: park until the coordinator has reset the shared
			// accounting and this walker's meter (safe: the walker is
			// quiescent here, and close(release) orders the resets before
			// the sampling phase reads).
			burnt.Done()
			<-release
			if !sample {
				return
			}
			if err := cfg.Sample(r); err != nil {
				errs[r.ID] = fmt.Errorf("walk: walker %d: %w", r.ID, err)
				cancel()
			}
		}(r)
	}

	burnt.Wait()
	if firstFleetErr(errs) == nil {
		// Wipe burn-in charges and meters. The meters stay uncapped:
		// per-walker budgets are enforced softly by Done() checks between
		// iterations, so an iteration's trailing charges may overshoot the
		// share slightly — exactly the serial loops' budget semantics
		// ("s.Calls() >= k" checked between iterations). A hard meter cap
		// would instead starve walkers whose share is smaller than one
		// iteration's cost.
		cfg.Session.ResetAccounting()
		for _, r := range runs {
			r.Meter.Reset(0)
		}
		sample = true
	}
	close(release)
	wg.Wait()

	// Settle every meter's deferred global accounting — batched debits and
	// walker-local fetch bitmaps — so Session.Calls() reflects the full
	// upstream traffic on every exit path, error or not.
	for _, r := range runs {
		r.Meter.Flush()
	}
	if err := firstFleetErr(errs); err != nil {
		return nil, err
	}

	calls := make([]int64, walkers)
	for i, r := range runs {
		calls[i] = r.Meter.Calls()
	}
	return calls, nil
}

// walkerSeeds returns the RNG seeds of an n-walker fleet rooted at seed:
// walker i's seed is stats.Derive(seed, "walker/i") unless an earlier
// walker already holds that value. Derive's tag mixing lets numbered tags
// collide (over root seeds 0–1999, no 20-walker fleet repeats a seed but
// three in four 21-walker fleets and every 32-walker fleet do), and two
// walkers with one seed would record the same walk, which the
// between-walker interval then counts as independent. A colliding walker
// draws instead from a
// SplitMix sequence rooted at its derived seed until the value is fresh;
// the sequence's outputs are pairwise distinct, so this ends within n
// draws. Fleets whose derived seeds were already distinct keep them.
func walkerSeeds(seed int64, n int) []int64 {
	seeds := make([]int64, n)
	held := make(map[int64]bool, n)
	for i := range seeds {
		s := stats.Derive(seed, fmt.Sprintf("walker/%d", i))
		for seq := stats.NewSeedSequence(s); held[s]; {
			s = seq.Next()
		}
		held[s] = true
		seeds[i] = s
	}
	return seeds
}

// SplitQuota splits k into w near-equal positive shares (the first k%w
// shares get the extra unit). RunFleet clamps w <= k before splitting;
// direct callers should do the same.
func SplitQuota(k, w int) []int {
	out := make([]int, w)
	base, rem := k/w, k%w
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// firstFleetErr returns the most informative error of a fleet: the first
// non-cancellation error if any walker failed for a real reason, otherwise
// the first error (cancellation) recorded.
func firstFleetErr(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

func orBackground(ctx context.Context) context.Context {
	if ctx != nil {
		return ctx
	}
	return context.Background()
}
