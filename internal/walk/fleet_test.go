package walk

import (
	"context"
	"errors"
	"fmt"
	"testing"

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
			for iter := 0; iter < maxIters && !r.Done(sampled[r.ID]); iter++ {
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
			for !r.Done(sampled[r.ID]) {
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
					for iter := 0; iter < maxIters && !r.Done(sampled[r.ID]); iter++ {
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
// walker-local fast paths must be visible in Session.Calls() and
// UniqueNodes() even when the fleet never reaches sampling.
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
	if got := s.UniqueNodes(); got < prefetch {
		t.Errorf("Session.UniqueNodes() = %d after phase-1 error, want >= %d", got, prefetch)
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
