package walk

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

func TestSplitQuota(t *testing.T) {
	cases := []struct {
		k, w int
		want []int
	}{
		{10, 4, []int{3, 3, 2, 2}},
		{8, 4, []int{2, 2, 2, 2}},
		{3, 3, []int{1, 1, 1}},
		{7, 1, []int{7}},
	}
	for _, c := range cases {
		got := SplitQuota(c.k, c.w)
		if len(got) != len(c.want) {
			t.Errorf("SplitQuota(%d,%d) = %v", c.k, c.w, got)
			continue
		}
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != c.want[i] {
				t.Errorf("SplitQuota(%d,%d) = %v, want %v", c.k, c.w, got, c.want)
				break
			}
		}
		if sum != c.k {
			t.Errorf("SplitQuota(%d,%d) shares sum to %d", c.k, c.w, sum)
		}
	}
}

// TestSplitQuotaRemainderDistribution pins the remainder arithmetic at the
// edge the budget-driven fleet cares about: shares of 1 — smaller than one
// sampling iteration's cost (a step plus a profile fetch can charge 2 calls)
// — must still be positive, near-equal, and front-loaded.
func TestSplitQuotaRemainderDistribution(t *testing.T) {
	for k := 1; k <= 40; k++ {
		for w := 1; w <= k; w++ {
			got := SplitQuota(k, w)
			if len(got) != w {
				t.Fatalf("SplitQuota(%d,%d) has %d shares", k, w, len(got))
			}
			sum, min, max := 0, got[0], got[0]
			for i, share := range got {
				sum += share
				if share < min {
					min = share
				}
				if share > max {
					max = share
				}
				if share <= 0 {
					t.Fatalf("SplitQuota(%d,%d)[%d] = %d, want positive", k, w, i, share)
				}
				if i > 0 && share > got[i-1] {
					t.Fatalf("SplitQuota(%d,%d) = %v not front-loaded", k, w, got)
				}
			}
			if sum != k {
				t.Fatalf("SplitQuota(%d,%d) sums to %d", k, w, sum)
			}
			if max-min > 1 {
				t.Fatalf("SplitQuota(%d,%d) = %v spread > 1", k, w, got)
			}
		}
	}
}

// TestRunFleetShareSmallerThanIteration runs a budget-driven fleet where
// every walker's share (1 call) is smaller than one sampling iteration's
// cost (up to 2 charges). The fleet's contract (see the RunFleet barrier
// comment) is soft budgets: Done() is checked between iterations, so a
// walker whose share is smaller than one iteration completes that iteration
// — it is never starved — and overshoots its share by at most the
// iteration's trailing charges, never by a whole extra iteration.
func TestRunFleetShareSmallerThanIteration(t *testing.T) {
	g := fleetGraph(t)
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const W = 4
	sampled := make([]int, W)
	calls, err := RunFleet(FleetConfig[graph.Node]{
		Session:      s,
		Seed:         9,
		Walkers:      W,
		K:            W, // one call per walker
		BudgetDriven: true,
		BurnIn:       5,
		NewWalker: func(r *FleetRun[graph.Node]) (Walker[graph.Node], error) {
			return NewSimple[graph.Node](NodeSpace{S: r.Meter}, graph.Node(r.ID), r.Rng), nil
		},
		Sample: func(r *FleetRun[graph.Node]) error {
			// Each iteration costs up to two charges: the step and the
			// arrived-at node's profile fetch — the NeighborExploration /
			// trajectory-recording pattern.
			maxIters := r.MaxIters()
			for iter := 0; iter < maxIters && !done(r, sampled[r.ID]); iter++ {
				cur, err := r.W.Step()
				if err != nil {
					if errors.Is(err, osn.ErrBudgetExhausted) {
						return nil
					}
					return err
				}
				if _, err := r.Meter.Degree(cur); err != nil {
					if errors.Is(err, osn.ErrBudgetExhausted) {
						return nil
					}
					return err
				}
				sampled[r.ID]++
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, c := range calls {
		total += c
		if sampled[i] < 1 {
			t.Errorf("walker %d starved: a 1-call share must still buy one iteration", i)
		}
		// Share 1 + at most 1 trailing charge from the iteration in flight.
		if c > 2 {
			t.Errorf("walker %d billed %d calls against a 1-call share (> one iteration's overshoot)", i, c)
		}
	}
	// Fleet-wide: K plus at most one iteration's trailing charge per walker.
	if total > 2*W {
		t.Errorf("fleet billed %d calls, want <= %d (budget %d + one iteration of overshoot each)", total, 2*W, W)
	}
}

func fleetGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(20)
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if err := b.AddEdge(graph.Node(i), graph.Node(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunFleetBarrierResetsAccounting checks burn-in charges are wiped and
// per-walker sampling bills land on the meters.
func TestRunFleetBarrierResetsAccounting(t *testing.T) {
	g := fleetGraph(t)
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sampled := make([]int, 3)
	calls, err := RunFleet(FleetConfig[graph.Node]{
		Session:      s,
		Seed:         4,
		Walkers:      3,
		K:            9,
		BudgetDriven: false,
		BurnIn:       25,
		NewWalker: func(r *FleetRun[graph.Node]) (Walker[graph.Node], error) {
			return NewSimple[graph.Node](NodeSpace{S: r.Meter}, graph.Node(r.ID), r.Rng), nil
		},
		Sample: func(r *FleetRun[graph.Node]) error {
			for !done(r, sampled[r.ID]) {
				if _, err := r.W.Step(); err != nil {
					return err
				}
				sampled[r.ID]++
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, n := range sampled {
		total += n
		if n != 3 {
			t.Errorf("walker %d drew %d samples, want 3", i, n)
		}
		if calls[i] <= 0 {
			t.Errorf("walker %d billed %d calls", i, calls[i])
		}
	}
	if total != 9 {
		t.Errorf("total samples %d, want 9", total)
	}
}

// TestRunFleetWalkerSeedsDistinct: numbered walker tags collide under
// stats.Derive from 21 walkers on. The fleet re-draws only the colliding
// walkers, so every walker of a 64-walker fleet gets its own seed and its
// own stream, and a walker whose derived seed was still free keeps it.
func TestRunFleetWalkerSeedsDistinct(t *testing.T) {
	g := fleetGraph(t)
	const W = 64
	for _, seed := range []int64{0, 1, 7, 2018} {
		seeds := walkerSeeds(seed, W)
		held := make(map[int64]bool, W)
		redrawn := 0
		for i, s := range seeds {
			if d := stats.Derive(seed, fmt.Sprintf("walker/%d", i)); s != d {
				redrawn++
				if !held[d] {
					t.Errorf("seed %d walker %d: derived seed was free but re-drawn", seed, i)
				}
			}
			if held[s] {
				t.Errorf("seed %d walker %d: seed %d already held by an earlier walker", seed, i, s)
			}
			held[s] = true
		}
		if redrawn == 0 {
			t.Errorf("seed %d: no walker collided at W=%d — the test no longer exercises the re-draw", seed, W)
		}

		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		streams := make([][4]int64, W)
		if _, err := RunFleet(FleetConfig[graph.Node]{
			Session: s,
			Seed:    seed,
			Walkers: W,
			K:       W,
			NewWalker: func(r *FleetRun[graph.Node]) (Walker[graph.Node], error) {
				for k := range streams[r.ID] {
					streams[r.ID][k] = r.Rng.Int63()
				}
				return NewSimple[graph.Node](NodeSpace{S: r.Meter}, graph.Node(r.ID%g.NumNodes()), r.Rng), nil
			},
			Sample: func(*FleetRun[graph.Node]) error { return nil },
		}); err != nil {
			t.Fatal(err)
		}
		first := make(map[[4]int64]int, W)
		for i, st := range streams {
			if j, dup := first[st]; dup {
				t.Errorf("seed %d: walkers %d and %d draw the same stream", seed, j, i)
			}
			first[st] = i
		}
	}
}

// TestRunFleetClampsWalkers pins the clamp contract: a caller passing more
// walkers than units of work gets K walkers with positive shares, not
// cfg.Walkers with zero-share stragglers — in both quota modes.
func TestRunFleetClampsWalkers(t *testing.T) {
	for _, budgetDriven := range []bool{false, true} {
		name := "samples"
		if budgetDriven {
			name = "budget"
		}
		t.Run(name, func(t *testing.T) {
			g := fleetGraph(t)
			s, err := osn.NewSession(g, osn.Config{})
			if err != nil {
				t.Fatal(err)
			}
			const (
				W = 8
				K = 3
			)
			sampled := make([]int, W)
			calls, err := RunFleet(FleetConfig[graph.Node]{
				Session:      s,
				Seed:         11,
				Walkers:      W,
				K:            K,
				BudgetDriven: budgetDriven,
				BurnIn:       5,
				NewWalker: func(r *FleetRun[graph.Node]) (Walker[graph.Node], error) {
					if r.ID >= K {
						t.Errorf("walker %d spawned beyond the K=%d clamp", r.ID, K)
					}
					return NewSimple[graph.Node](NodeSpace{S: r.Meter}, graph.Node(r.ID), r.Rng), nil
				},
				Sample: func(r *FleetRun[graph.Node]) error {
					if budgetDriven && r.Budget <= 0 || !budgetDriven && r.Quota <= 0 {
						t.Errorf("walker %d got a zero share", r.ID)
					}
					maxIters := r.MaxIters()
					for iter := 0; iter < maxIters && !done(r, sampled[r.ID]); iter++ {
						if _, err := r.W.Step(); err != nil {
							if errors.Is(err, osn.ErrBudgetExhausted) {
								return nil
							}
							return err
						}
						sampled[r.ID]++
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(calls) != K {
				t.Fatalf("returned %d per-walker calls, want the clamped %d", len(calls), K)
			}
			for i := K; i < W; i++ {
				if sampled[i] != 0 {
					t.Errorf("clamped-away walker %d drew %d samples", i, sampled[i])
				}
			}
		})
	}
}

// TestRunFleetPhase1ErrorSettlesAccounting checks the phase-1 failure path
// flushes every meter before returning: burn-in traffic billed through
// walker-local fast paths must be visible in Session.Calls() even when the
// fleet never reaches sampling.
func TestRunFleetPhase1ErrorSettlesAccounting(t *testing.T) {
	g := fleetGraph(t)
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	const prefetch = 5
	_, err = RunFleet(FleetConfig[graph.Node]{
		Session: s,
		Seed:    4,
		Walkers: 3,
		K:       300,
		BurnIn:  5,
		NewWalker: func(r *FleetRun[graph.Node]) (Walker[graph.Node], error) {
			if r.ID == 1 {
				// Bill real traffic through the walker-local meter, then fail
				// construction: the fleet must settle these charges globally
				// before surfacing the error.
				for u := 0; u < prefetch; u++ {
					if _, err := r.Meter.Neighbors(graph.Node(u)); err != nil {
						return nil, err
					}
				}
				return nil, boom
			}
			return NewSimple[graph.Node](NodeSpace{S: r.Meter}, graph.Node(r.ID), r.Rng), nil
		},
		Sample: func(r *FleetRun[graph.Node]) error {
			t.Error("sampling phase must not start after a phase-1 error")
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the construction error, got %v", err)
	}
	if got := s.Calls(); got < prefetch {
		t.Errorf("Session.Calls() = %d after phase-1 error, want >= %d (meters not flushed)", got, prefetch)
	}
}

// TestRunFleetPropagatesWalkerError checks one failing walker cancels the
// fleet and the real error (not the cancellation) surfaces.
func TestRunFleetPropagatesWalkerError(t *testing.T) {
	g := fleetGraph(t)
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err = RunFleet(FleetConfig[graph.Node]{
		Session: s,
		Seed:    4,
		Walkers: 3,
		K:       300,
		BurnIn:  5,
		NewWalker: func(r *FleetRun[graph.Node]) (Walker[graph.Node], error) {
			return NewSimple[graph.Node](NodeSpace{S: r.Meter}, graph.Node(r.ID), r.Rng), nil
		},
		Sample: func(r *FleetRun[graph.Node]) error {
			if r.ID == 1 {
				return boom
			}
			<-r.Ctx.Done() // the others wait for the cancellation
			return r.Ctx.Err()
		},
	})
	if !errors.Is(err, boom) {
		t.Errorf("want the walker's error, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("cancellation masked the real failure: %v", err)
	}
}

// TestRunFleetOfOne pins the fleet-of-one rule. A fleet asked for one
// walker is the paper's single walk: the walker draws from the caller's
// stream itself, so it walks, bills and leaves that stream exactly as a
// hand-driven Simple walk on the same stream over a Meter does, and RunFleet
// derives no stream of its own. Without a caller's stream it must refuse to
// run. A fleet of two or more draws from derived streams and leaves the
// caller's stream unread.
func TestRunFleetOfOne(t *testing.T) {
	g, err := gen.BarabasiAlbert(60, 2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	const seed, k, burnIn = 77, 50, 20
	// handWalk is the single walk driven by hand: burn in on an unlimited
	// meter, wipe the burn-in charges as the barrier does, then step until
	// the quota is drawn or the budget spent.
	handWalk := func(t *testing.T, budgetDriven bool) (path []graph.Node, calls, next int64) {
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		m := s.Meter(0)
		w := NewSimple[graph.Node](NodeSpace{S: m}, graph.Node(rng.Intn(g.NumNodes())), rng)
		if err := BurninCtx[graph.Node](context.Background(), w, burnIn); err != nil {
			t.Fatal(err)
		}
		s.ResetAccounting()
		m.Reset(0)
		maxIters := k
		if budgetDriven {
			maxIters = SpinCap(k, g.NumNodes())
		}
		for n := 0; n < maxIters && !(budgetDriven && m.Calls() >= k); n++ {
			u, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			path = append(path, u)
		}
		return path, m.Calls(), rng.Int63()
	}
	cases := []struct {
		name         string
		walkers      int
		budgetDriven bool
		noStream     bool
	}{
		{name: "one walker/samples", walkers: 1},
		{name: "one walker/budget", walkers: 1, budgetDriven: true},
		{name: "one walker/no stream", walkers: 1, noStream: true},
		{name: "two walkers/samples", walkers: 2},
		{name: "four walkers/budget", walkers: 4, budgetDriven: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := osn.NewSession(g, osn.Config{})
			if err != nil {
				t.Fatal(err)
			}
			caller := rand.New(rand.NewSource(seed))
			cfg := FleetConfig[graph.Node]{
				Session: s, Rng: caller, Seed: 9, Walkers: c.walkers,
				K: k, BudgetDriven: c.budgetDriven, BurnIn: burnIn,
			}
			if c.noStream {
				cfg.Rng = nil
			}
			streams := make([]*rand.Rand, c.walkers)
			paths := make([][]graph.Node, c.walkers)
			cfg.NewWalker = func(r *FleetRun[graph.Node]) (Walker[graph.Node], error) {
				streams[r.ID] = r.Rng
				return NewSimple[graph.Node](NodeSpace{S: r.Meter}, graph.Node(r.Rng.Intn(g.NumNodes())), r.Rng), nil
			}
			cfg.Sample = func(r *FleetRun[graph.Node]) error {
				for n := 0; n < r.MaxIters() && !done(r, n); n++ {
					u, err := r.W.Step()
					if err != nil {
						return err
					}
					paths[r.ID] = append(paths[r.ID], u)
				}
				return nil
			}
			calls, err := RunFleet(cfg)
			if c.noStream {
				if err == nil {
					t.Fatal("a one-walker fleet without the caller's stream ran")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			next := caller.Int63()
			if c.walkers > 1 {
				for i, st := range streams {
					if st == caller {
						t.Errorf("walker %d of %d draws from the caller's stream", i, c.walkers)
					}
				}
				if want := rand.New(rand.NewSource(seed)).Int63(); next != want {
					t.Errorf("a %d-walker fleet read the caller's stream", c.walkers)
				}
				return
			}
			if streams[0] != caller {
				t.Fatal("the one walker does not draw from the caller's stream")
			}
			path, wantCalls, wantNext := handWalk(t, c.budgetDriven)
			if !slices.Equal(paths[0], path) {
				t.Errorf("fleet of one walked %v,\nhand-driven walk %v", paths[0], path)
			}
			if len(calls) != 1 || calls[0] != wantCalls || s.Calls() != wantCalls {
				t.Errorf("fleet of one billed %v (session %d), hand-driven walk %d", calls, s.Calls(), wantCalls)
			}
			if next != wantNext {
				t.Errorf("caller's next draw %d after the fleet, %d after the hand-driven walk", next, wantNext)
			}
		})
	}
}

// done reports whether walker r has used up its share of the work: its
// budget in budget-driven mode, else its sample quota.
func done(r *FleetRun[graph.Node], samples int) bool {
	if r.Budget > 0 {
		return r.Meter.Calls() >= r.Budget
	}
	return samples >= r.Quota
}
