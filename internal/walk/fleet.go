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

// FleetRun is one walker's handle inside an estimate's fleet: its RNG
// stream, its metered view of the shared session, and its slice of the
// work. Exactly one goroutine owns a FleetRun.
type FleetRun[N comparable] struct {
	// ID is the walker index in [0, Walkers); per-walker outputs are
	// collected into slot ID of caller-side slices.
	ID int
	// Rng is the walker's stream. A fleet asked for one walker draws from
	// the caller's FleetConfig.Rng. In a larger fleet walker ID draws from
	// its own stream, seeded stats.Derive(seed, "walker/<ID>") (re-drawn
	// when an earlier walker already holds that seed), so trajectories are
	// reproducible regardless of scheduling.
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

	err error // the walker's failure, read once the walker is quiescent
}

// MaxIters bounds the walker's sampling loop: its quota, or in
// budget-driven mode the spin cap of its budget (see SpinCap).
func (r *FleetRun[N]) MaxIters() int {
	if r.Budget > 0 {
		return SpinCap(r.Budget, r.Meter.NumNodes())
	}
	return r.Quota
}

// SpinCap is the most steps a walk budgeted calls API calls may take over a
// graph of n nodes: 50 per friend list it can buy. Cache hits are free, so
// a budget-driven walk may take many more steps than its budget, and once
// it has cached every list it can reach it never spends the rest. A walk
// cannot buy more distinct friend lists than there are nodes, so the cap
// counts min(calls, n) lists.
func SpinCap(calls int64, n int) int {
	return 50 * int(min(calls, int64(n)))
}

// FleetConfig describes one estimate's walkers over one shared session.
type FleetConfig[N comparable] struct {
	// Session is the shared metered access handle; its accounting is reset
	// at the burn-in/sampling boundary.
	Session *osn.Session
	// Ctx cancels the whole fleet; nil means Background.
	Ctx context.Context
	// Rng is the caller's stream. A fleet of one walker draws from it and
	// needs it; a larger fleet leaves it unread.
	Rng *rand.Rand
	// Seed roots the per-walker RNG streams of a fleet of two or more.
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
	// caller-side slices at index r.ID. It must take at most r.MaxIters
	// steps, stop before a step once r.Meter.Calls() reaches a positive
	// r.Budget, and honor r.Ctx.
	Sample func(r *FleetRun[N]) error
}

// RunFleet runs one estimate's sampling walk; every sampling walk runs
// through it. Every walker picks a start and burns in, a barrier resets the
// shared accounting (burn-in is not billed, per the paper), per-walker
// budgets are armed, and every walker samples until it exhausts its share.
// The returned slice holds each walker's billed API calls (deterministic
// for a fixed seed; see osn.Meter).
//
// A fleet asked for one walker is the paper's single walk: that walker
// draws from cfg.Rng, and RunFleet derives no stream of its own, so the
// caller's stream advances exactly as under a hand-driven walk. Larger
// fleets draw from per-walker streams and leave cfg.Rng unread.
//
// Walker 0 runs on the caller's goroutine and every other walker on one
// goroutine of its own for its whole lifetime: it burns in, parks at the
// barrier, and resumes into sampling when released. A fleet of one spawns
// no goroutine and never waits. The barrier itself is O(1) (epoch bumps,
// not O(|V|) wipes). Walkers exceeding the work (Walkers > K when K >= 1)
// are clamped away rather than silently given zero-share quotas, so the
// returned slice may be shorter than cfg.Walkers. On every exit path —
// including phase-1 errors — all meters are flushed first, so
// Session.Calls() is settled whenever RunFleet returns.
func RunFleet[N comparable](cfg FleetConfig[N]) ([]int64, error) {
	if cfg.Walkers < 1 {
		return nil, fmt.Errorf("walk: fleet needs at least one walker, got %d", cfg.Walkers)
	}
	if cfg.Walkers == 1 && cfg.Rng == nil {
		return nil, fmt.Errorf("walk: a one-walker fleet needs the caller's Rng")
	}
	walkers := cfg.Walkers
	if cfg.K >= 1 && walkers > cfg.K {
		walkers = cfg.K // every walker must get a positive share
	}
	// A failing walker cancels the rest of the fleet. A lone walker has no
	// one to stop, so its loops check the caller's context itself.
	ctx, cancel := orBackground(cfg.Ctx), context.CancelFunc(func() {})
	if walkers > 1 {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// The stream rule goes by the size asked for: a larger fleet clamped to
	// one walker keeps its derived stream.
	var seeds []int64
	if cfg.Walkers > 1 {
		seeds = walkerSeeds(cfg.Seed, walkers)
	}
	quotas := SplitQuota(cfg.K, walkers)
	runs := make([]FleetRun[N], walkers)
	for i := range runs {
		r := &runs[i]
		r.ID, r.Ctx = i, ctx
		r.Meter = cfg.Session.Meter(0) // unlimited during burn-in
		r.Rng = cfg.Rng
		if seeds != nil {
			r.Rng = rand.New(rand.NewSource(seeds[i]))
		}
		if cfg.BudgetDriven {
			r.Budget = int64(quotas[i])
		} else {
			r.Quota = quotas[i]
		}
	}

	start := func(r *FleetRun[N]) {
		w, err := cfg.NewWalker(r)
		if err != nil {
			r.err = fmt.Errorf("walk: walker %d start: %w", r.ID, err)
		} else if err := BurninCtx[N](ctx, w, cfg.BurnIn); err != nil {
			r.err = fmt.Errorf("walk: walker %d burn-in: %w", r.ID, err)
		} else {
			r.W = w
			return
		}
		cancel()
	}
	sample := func(r *FleetRun[N]) {
		if err := cfg.Sample(r); err != nil {
			r.err = fmt.Errorf("walk: walker %d: %w", r.ID, err)
			cancel()
		}
	}

	var burnt, done sync.WaitGroup
	release := make(chan struct{})
	sampling := false // written before close(release), read after <-release
	for i := 1; i < walkers; i++ {
		burnt.Add(1)
		done.Add(1)
		go func(r *FleetRun[N]) {
			defer done.Done()
			start(r)
			// Barrier: park until the coordinator has reset the shared
			// accounting and this walker's meter (safe: the walker is
			// quiescent here, and close(release) orders the resets before
			// the sampling phase reads).
			burnt.Done()
			<-release
			if sampling {
				sample(r)
			}
		}(&runs[i])
	}
	start(&runs[0])
	burnt.Wait()
	if sampling = firstFleetErr(runs) == nil; sampling {
		// Wipe burn-in charges and meters. The meters stay uncapped:
		// per-walker budgets are enforced softly by the Sample loops'
		// checks between iterations, so an iteration's trailing charges
		// may overshoot the share slightly. A hard meter cap would instead
		// starve walkers whose share is smaller than one iteration's cost.
		cfg.Session.ResetAccounting()
		for i := range runs {
			runs[i].Meter.Reset(0)
		}
	}
	close(release)
	if sampling {
		sample(&runs[0])
	}
	done.Wait()

	// Settle every meter's deferred global accounting — batched debits and
	// walker-local fetch bitmaps — so Session.Calls() reflects the full
	// upstream traffic on every exit path, error or not.
	calls := make([]int64, walkers)
	for i := range runs {
		runs[i].Meter.Flush()
		calls[i] = runs[i].Meter.Calls()
	}
	if err := firstFleetErr(runs); err != nil {
		return nil, err
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
func firstFleetErr[N comparable](runs []FleetRun[N]) error {
	var first error
	for i := range runs {
		err := runs[i].err
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
