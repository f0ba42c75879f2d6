// Package gen produces synthetic online social networks. The paper evaluates
// on five SNAP/KONECT datasets (Facebook, Google+, Pokec, Orkut,
// Livejournal); those files are not redistributable and unavailable offline,
// so this package provides generators whose outputs exercise the same code
// paths: heavy-tailed degree distributions (preferential attachment,
// configuration model), community structure (stochastic block model,
// Watts–Strogatz), and the three label mechanics the paper uses — two-way
// gender labels whose female share varies by community, Zipf-skewed
// location labels, and degree-derived labels.
//
// All generators are deterministic given a seed and always return a graph;
// callers that require connectivity compose with graph.LargestComponent, the
// same preprocessing the paper applies to the real datasets.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// powf is a local alias that keeps the inverse-CDF formulas readable.
func powf(x, y float64) float64 { return math.Pow(x, y) }

// validateNM checks common generator parameters.
func validateNM(n int, m int) error {
	if n <= 0 {
		return fmt.Errorf("gen: need n > 0 nodes, got %d", n)
	}
	if m < 0 {
		return fmt.Errorf("gen: need m >= 0, got %d", m)
	}
	return nil
}

// ErdosRenyi generates G(n, m): n nodes and m distinct undirected edges
// chosen uniformly at random (self-loops excluded). m is capped at the number
// of possible edges.
func ErdosRenyi(n int, m int, rng *rand.Rand) (*graph.Graph, error) {
	if err := validateNM(n, m); err != nil {
		return nil, err
	}
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		m = int(maxEdges)
	}
	b := graph.NewBuilder(n)
	seen := make(map[graph.Edge]struct{}, m)
	for len(seen) < m {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Canonical()
		if _, ok := seen[e]; ok {
			continue
		}
		seen[e] = struct{}{}
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// BarabasiAlbert generates a preferential-attachment graph: start from a
// small clique of mAttach+1 nodes, then attach each new node to mAttach
// distinct existing nodes chosen proportionally to degree. The result has a
// power-law degree tail like real OSNs.
func BarabasiAlbert(n, mAttach int, rng *rand.Rand) (*graph.Graph, error) {
	if mAttach <= 0 {
		return nil, fmt.Errorf("gen: need mAttach > 0, got %d", mAttach)
	}
	if n <= mAttach {
		return nil, fmt.Errorf("gen: need n > mAttach, got n=%d mAttach=%d", n, mAttach)
	}
	b := graph.NewBuilder(n)
	// repeated holds every edge endpoint once per incidence; sampling a
	// uniform element of it is exactly degree-proportional sampling.
	repeated := make([]graph.Node, 0, 2*mAttach*n)
	// Seed clique over nodes 0..mAttach.
	for u := 0; u <= mAttach; u++ {
		for v := u + 1; v <= mAttach; v++ {
			if err := b.AddEdge(graph.Node(u), graph.Node(v)); err != nil {
				return nil, err
			}
			repeated = append(repeated, graph.Node(u), graph.Node(v))
		}
	}
	chosen := make(map[graph.Node]struct{}, mAttach)
	order := make([]graph.Node, 0, mAttach) // insertion order: keeps the build deterministic
	for u := mAttach + 1; u < n; u++ {
		clear(chosen)
		order = order[:0]
		for len(chosen) < mAttach {
			t := repeated[rng.Intn(len(repeated))]
			if _, dup := chosen[t]; dup {
				continue
			}
			chosen[t] = struct{}{}
			order = append(order, t)
		}
		for _, t := range order {
			if err := b.AddEdge(graph.Node(u), t); err != nil {
				return nil, err
			}
			repeated = append(repeated, graph.Node(u), t)
		}
	}
	return b.Build()
}

// WattsStrogatz generates a small-world graph: a ring lattice over n nodes
// where each node connects to its k nearest neighbors (k even), with each
// edge rewired to a random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) (*graph.Graph, error) {
	if k <= 0 || k%2 != 0 {
		return nil, fmt.Errorf("gen: Watts-Strogatz needs even k > 0, got %d", k)
	}
	if n <= k {
		return nil, fmt.Errorf("gen: need n > k, got n=%d k=%d", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: beta must be in [0,1], got %g", beta)
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if rng.Float64() < beta {
				// Rewire the far endpoint uniformly (avoid self-loop; the
				// builder deduplicates any multi-edge this creates).
				v = rng.Intn(n)
				if v == u {
					v = (v + 1) % n
				}
			}
			if err := b.AddEdge(graph.Node(u), graph.Node(v)); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

// SBM generates a stochastic block model with len(sizes) communities. pIn is
// the within-community edge probability and pOut the cross-community one.
// Community structure correlates with location labels, which is how the
// Pokec stand-in makes location-pair edge counts meaningfully non-random.
func SBM(sizes []int, pIn, pOut float64, rng *rand.Rand) (*graph.Graph, []int, error) {
	if len(sizes) == 0 {
		return nil, nil, fmt.Errorf("gen: SBM needs at least one community")
	}
	if pIn < 0 || pIn > 1 || pOut < 0 || pOut > 1 {
		return nil, nil, fmt.Errorf("gen: SBM probabilities must be in [0,1], got pIn=%g pOut=%g", pIn, pOut)
	}
	n := 0
	for i, s := range sizes {
		if s <= 0 {
			return nil, nil, fmt.Errorf("gen: SBM community %d has non-positive size %d", i, s)
		}
		n += s
	}
	community := make([]int, n)
	idx := 0
	for c, s := range sizes {
		for j := 0; j < s; j++ {
			community[idx] = c
			idx++
		}
	}
	b := graph.NewBuilder(n)
	// Sample edges with geometric skipping so sparse graphs cost O(|E|), not
	// O(n^2): for probability p, gap lengths between successive successes
	// are geometric.
	addBlock := func(p float64, pairAt func(int64) (int, int), total int64) error {
		if p <= 0 || total == 0 {
			return nil
		}
		if p >= 1 {
			for t := int64(0); t < total; t++ {
				u, v := pairAt(t)
				if err := b.AddEdge(graph.Node(u), graph.Node(v)); err != nil {
					return err
				}
			}
			return nil
		}
		t := int64(-1)
		logq := math.Log(1 - p)
		for {
			// Geometric(p) gap via inverse CDF, so cost is O(edges) rather
			// than O(pairs) even for very sparse blocks.
			gap := int64(math.Log(1-rng.Float64())/logq) + 1
			if gap < 1 {
				gap = 1
			}
			t += gap
			if t >= total {
				return nil
			}
			u, v := pairAt(t)
			if err := b.AddEdge(graph.Node(u), graph.Node(v)); err != nil {
				return err
			}
		}
	}
	// Community extents.
	start := make([]int, len(sizes)+1)
	for c, s := range sizes {
		start[c+1] = start[c] + s
	}
	for c := range sizes {
		sc := int64(sizes[c])
		within := sc * (sc - 1) / 2
		base := start[c]
		err := addBlock(pIn, func(t int64) (int, int) {
			u, v := pairFromIndex(t, sizes[c])
			return base + u, base + v
		}, within)
		if err != nil {
			return nil, nil, err
		}
		for c2 := c + 1; c2 < len(sizes); c2++ {
			cross := sc * int64(sizes[c2])
			base2 := start[c2]
			err := addBlock(pOut, func(t int64) (int, int) {
				return base + int(t/int64(sizes[c2])), base2 + int(t%int64(sizes[c2]))
			}, cross)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return g, community, nil
}

// pairFromIndex maps a flat index t in [0, s(s-1)/2) to the t-th pair (u, v)
// with u < v over s items, enumerating v-major: (0,1),(0,2),(1,2),(0,3)...
func pairFromIndex(t int64, s int) (int, int) {
	// v is the smallest integer with v(v+1)/2 > t; start from the closed-form
	// estimate and correct for float rounding.
	v := int64((math.Sqrt(8*float64(t)+1) - 1) / 2)
	if v < 1 {
		v = 1
	}
	for v*(v+1)/2 <= t {
		v++
	}
	for v > 1 && (v-1)*v/2 > t {
		v--
	}
	u := t - v*(v-1)/2
	_ = s
	return int(u), int(v)
}

// ConfigurationModel generates a simple graph approximating the given degree
// sequence by stub matching, discarding self-loops and multi-edges (so
// realized degrees may fall slightly short for heavy nodes — the standard
// erased configuration model).
func ConfigurationModel(degrees []int, rng *rand.Rand) (*graph.Graph, error) {
	n := len(degrees)
	if n == 0 {
		return nil, fmt.Errorf("gen: configuration model needs at least one node")
	}
	var stubs []graph.Node
	for u, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("gen: negative degree %d at node %d", d, u)
		}
		for i := 0; i < d; i++ {
			stubs = append(stubs, graph.Node(u))
		}
	}
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1] // drop one stub to make the sum even
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		if stubs[i] == stubs[i+1] {
			continue
		}
		if err := b.AddEdge(stubs[i], stubs[i+1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// PowerLawDegrees samples n degrees from a discrete power law with exponent
// gamma on [minDeg, maxDeg], the usual OSN degree model.
func PowerLawDegrees(n, minDeg, maxDeg int, gamma float64, rng *rand.Rand) ([]int, error) {
	if n <= 0 || minDeg <= 0 || maxDeg < minDeg {
		return nil, fmt.Errorf("gen: bad power-law parameters n=%d min=%d max=%d", n, minDeg, maxDeg)
	}
	if gamma <= 1 {
		return nil, fmt.Errorf("gen: power-law exponent must exceed 1, got %g", gamma)
	}
	// Inverse-CDF sampling over the continuous power law, rounded down.
	out := make([]int, n)
	a, b := float64(minDeg), float64(maxDeg)+1
	for i := range out {
		u := rng.Float64()
		x := powf(powf(a, 1-gamma)+u*(powf(b, 1-gamma)-powf(a, 1-gamma)), 1/(1-gamma))
		d := int(x)
		if d < minDeg {
			d = minDeg
		}
		if d > maxDeg {
			d = maxDeg
		}
		out[i] = d
	}
	return out, nil
}
