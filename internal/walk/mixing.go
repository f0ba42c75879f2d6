package walk

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/graph"
)

// MixingOptions configures mixing-time computation.
type MixingOptions struct {
	// MaxSteps caps the search; if the chain has not mixed within MaxSteps
	// transitions the computation reports MaxSteps with Converged=false.
	MaxSteps int
	// StartNodes restricts the outer maximization of Eq. 23 to these start
	// nodes. Nil means all nodes — exact but O(|V|·|E|·T); the experiment
	// harness samples high- and low-degree starts instead, which empirically
	// brackets the true maximum on social graphs.
	StartNodes []graph.Node
	// Workers parallelizes the per-start computations; 0 or 1 runs
	// sequentially. Each worker owns two |V|-sized float buffers.
	Workers int
}

// MixingResult reports a (possibly truncated) mixing-time computation.
type MixingResult struct {
	// Steps is T(eps), the smallest t with max-over-starts total variation
	// distance below eps, or MaxSteps when not converged.
	Steps int
	// Converged reports whether the TV threshold was reached within MaxSteps.
	Converged bool
	// FinalTV is the worst-start TV distance at Steps.
	FinalTV float64
}

// MixingTime computes the simple-random-walk mixing time of g per the
// paper's Definition (Eq. 23):
//
//	T(eps) = max_i min{ t : (1/2) Σ_u |π(u) − [π(i) Pᵗ](u)| < eps }
//
// where π is the degree-proportional stationary distribution and π(i) the
// point mass at start node i. Distributions are propagated with sparse
// matrix–vector products, O(|E|) per step per start.
//
// The walk on a connected non-bipartite graph converges; on bipartite graphs
// the pure walk is periodic and never converges, which this function reports
// via Converged=false rather than looping forever. ctx is checked between
// power-iteration steps; a cancelled computation returns ctx's error. A nil
// ctx means context.Background().
func MixingTime(ctx context.Context, g *graph.Graph, eps float64, opts MixingOptions) (MixingResult, error) {
	ctx = orBackground(ctx)
	n := g.NumNodes()
	if n == 0 {
		return MixingResult{}, fmt.Errorf("walk: mixing time of empty graph")
	}
	if eps <= 0 || eps >= 1 {
		return MixingResult{}, fmt.Errorf("walk: eps must be in (0,1), got %g", eps)
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 10000
	}
	starts := opts.StartNodes
	if starts == nil {
		starts = make([]graph.Node, n)
		for i := range starts {
			starts[i] = graph.Node(i)
		}
	}
	for _, s := range starts {
		if s < 0 || int(s) >= n {
			return MixingResult{}, fmt.Errorf("walk: start node %d out of range", s)
		}
		if g.Degree(s) == 0 {
			return MixingResult{}, fmt.Errorf("walk: start node %d is isolated", s)
		}
	}

	// Stationary distribution π(u) = d(u) / 2|E|.
	pi := make([]float64, n)
	twoE := 2 * float64(g.NumEdges())
	for u := 0; u < n; u++ {
		pi[u] = float64(g.Degree(graph.Node(u))) / twoE
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(starts) {
		workers = len(starts)
	}

	type startResult struct {
		steps     int
		tv        float64
		converged bool
	}
	results := make([]startResult, len(starts))
	var wg sync.WaitGroup
	var nextStart atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := make([]float64, n)
			next := make([]float64, n)
			for {
				idx := int(nextStart.Add(1)) - 1
				if idx >= len(starts) {
					return
				}
				s := starts[idx]
				for i := range cur {
					cur[i] = 0
				}
				cur[s] = 1
				t := 0
				tv := totalVariation(cur, pi)
				for tv >= eps && t < opts.MaxSteps {
					if ctx.Err() != nil {
						return
					}
					stepDistribution(g, cur, next)
					cur, next = next, cur
					t++
					tv = totalVariation(cur, pi)
				}
				results[idx] = startResult{steps: t, tv: tv, converged: tv < eps}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return MixingResult{}, err
	}

	worstSteps := 0
	worstTV := results[0].tv
	converged := true
	for _, r := range results {
		if !r.converged {
			converged = false
		}
		if r.steps > worstSteps {
			worstSteps = r.steps
			worstTV = r.tv
		}
	}
	return MixingResult{Steps: worstSteps, Converged: converged, FinalTV: worstTV}, nil
}

// stepDistribution computes next = cur · P for the simple random walk, where
// P(u,v) = 1/d(u) for each neighbor v of u.
func stepDistribution(g *graph.Graph, cur, next []float64) {
	for i := range next {
		next[i] = 0
	}
	for u := range cur {
		mass := cur[u]
		if mass == 0 {
			continue
		}
		ns := g.Neighbors(graph.Node(u))
		if len(ns) == 0 {
			next[u] += mass // absorb at isolated nodes
			continue
		}
		share := mass / float64(len(ns))
		for _, v := range ns {
			next[v] += share
		}
	}
}

// totalVariation returns (1/2) Σ |a(u) − b(u)|.
func totalVariation(a, b []float64) float64 {
	var sum float64
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum / 2
}

// BurnIn is the default burn-in of a walk on g: MixingSteps(g), floored at
// 10 so even fast-mixing graphs get a short burn-in. The estimation entry
// points, the serving engine and the experiment harness all resolve a zero
// burn-in through it.
func BurnIn(ctx context.Context, g *graph.Graph) (int, error) {
	steps, err := MixingSteps(ctx, g)
	if err != nil {
		return 0, err
	}
	return max(steps, 10), nil
}

// MixingSteps is the mixing time T(1e-3) of Section 5.1 on g, maximized over
// DefaultMixingStarts(g, 4) and capped at 5,000 steps. The measurement is
// memoized per graph pointer and version, so only the first call on a graph
// pays for it. A cancelled ctx (nil means context.Background()) returns its
// error, and stops a measurement between power-iteration steps.
func MixingSteps(ctx context.Context, g *graph.Graph) (int, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	key := mixingKey{g: weak.Make(g), version: g.Version()}
	mixingMemo.Lock()
	steps, ok := mixingMemo.m[key]
	mixingMemo.Unlock()
	if ok {
		return steps, nil
	}
	mixed, err := MixingTime(ctx, g, 1e-3, MixingOptions{
		MaxSteps:   5000,
		StartNodes: DefaultMixingStarts(g, 4),
	})
	if err != nil {
		return 0, err
	}
	mixingMemo.Lock()
	defer mixingMemo.Unlock()
	if _, ok := mixingMemo.m[key]; !ok {
		if mixingMemo.m == nil {
			mixingMemo.m = make(map[mixingKey]int)
		}
		mixingMemo.m[key] = mixed.Steps
		runtime.AddCleanup(g, forgetMixing, key)
	}
	return mixed.Steps, nil
}

// mixingMemo memoizes MixingSteps. Its keys hold the graph weakly, so the
// memo keeps no graph alive, and a cleanup drops a graph's entries once it
// is collected.
var mixingMemo struct {
	sync.Mutex
	m map[mixingKey]int
}

// mixingKey identifies one graph at one version. Graphs are immutable apart
// from SetVersion, which snapshot loaders call before publishing one.
type mixingKey struct {
	g       weak.Pointer[graph.Graph]
	version uint64
}

func forgetMixing(key mixingKey) {
	mixingMemo.Lock()
	delete(mixingMemo.m, key)
	mixingMemo.Unlock()
}

// DefaultMixingStarts picks a small representative set of start nodes for
// approximate mixing-time computation: the highest-degree node, the
// lowest-degree node, and evenly spaced IDs. On social graphs the slowest
// start is almost always a peripheral low-degree node, so this bracket is a
// good surrogate for the exact maximum at a fraction of the cost.
func DefaultMixingStarts(g *graph.Graph, count int) []graph.Node {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	if count < 2 {
		count = 2
	}
	minU, maxU := graph.Node(0), graph.Node(0)
	for u := graph.Node(1); int(u) < n; u++ {
		if g.Degree(u) < g.Degree(minU) {
			minU = u
		}
		if g.Degree(u) > g.Degree(maxU) {
			maxU = u
		}
	}
	starts := []graph.Node{minU, maxU}
	for i := 0; len(starts) < count && i < n; i++ {
		u := graph.Node(i * (n / count))
		if u != minU && u != maxU {
			starts = append(starts, u)
		}
	}
	return starts
}
