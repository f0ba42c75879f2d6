// Package linegraph provides an implicit view of the line graph G' = (H, R)
// used by the baseline adaptations (paper Section 5.1): each edge of G is a
// node of G', and two nodes of G' are adjacent iff the corresponding edges
// of G share an endpoint. The view is never materialized — |R| can be
// quadratic in degrees — and every operation is translated into the same
// restricted neighbor-list API calls the original graph allows, so baseline
// costs are metered in exactly the same currency as the proposed algorithms.
package linegraph

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/osn"
)

// View is the implicit line graph over an OSN access handle (a Session or a
// per-walker Meter). States are canonical edges of G (U <= V). It implements
// walk.Space[graph.Edge].
type View struct {
	S osn.API
}

// Degree returns deg_G'(e) = d(u) + d(v) − 2 for e = (u, v).
func (v View) Degree(e graph.Edge) (int, error) {
	du, err := v.S.Degree(e.U)
	if err != nil {
		return 0, err
	}
	dv, err := v.S.Degree(e.V)
	if err != nil {
		return 0, err
	}
	return du + dv - 2, nil
}

// Neighbor returns the i-th neighbor of e in G'. Neighbors are enumerated
// deterministically: first the d(U)−1 edges (U, w) with w ranging over
// neighbors of U except V (in adjacency order), then the d(V)−1 edges
// (V, w) with w over neighbors of V except U.
func (v View) Neighbor(e graph.Edge, i int) (graph.Edge, error) {
	if i < 0 {
		return graph.Edge{}, fmt.Errorf("linegraph: negative neighbor index %d", i)
	}
	nu, err := v.S.Neighbors(e.U)
	if err != nil {
		return graph.Edge{}, err
	}
	if i < len(nu)-1 {
		w := pickSkipping(nu, e.V, i)
		return graph.Edge{U: e.U, V: w}.Canonical(), nil
	}
	i -= len(nu) - 1
	nv, err := v.S.Neighbors(e.V)
	if err != nil {
		return graph.Edge{}, err
	}
	if i < len(nv)-1 {
		w := pickSkipping(nv, e.U, i)
		return graph.Edge{U: e.V, V: w}.Canonical(), nil
	}
	return graph.Edge{}, fmt.Errorf("linegraph: neighbor index out of range for edge %v", e)
}

// pickSkipping returns the i-th element of ns skipping the single occurrence
// of excl. ns is sorted, so one comparison fixes the offset.
func pickSkipping(ns []graph.Node, excl graph.Node, i int) graph.Node {
	// Binary search for excl's position.
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < excl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo // position of excl in ns (present by construction)
	if i < pos {
		return ns[i]
	}
	return ns[i+1]
}

// IsTarget reports whether the G-edge behind state e is a target edge for
// pair p, using free label lookups on the session.
func (v View) IsTarget(e graph.Edge, p graph.LabelPair) bool {
	return (v.S.HasLabel(e.U, p.T1) && v.S.HasLabel(e.V, p.T2)) ||
		(v.S.HasLabel(e.U, p.T2) && v.S.HasLabel(e.V, p.T1))
}

// RandomEdge returns a start state for a walk on G': a uniformly random
// incident edge of a uniformly random node. Like the node-walk start, any
// bias is erased by burn-in.
func (v View) RandomEdge(rng *rand.Rand) (graph.Edge, error) {
	for attempts := 0; attempts < 1000; attempts++ {
		u := v.S.RandomNode(rng)
		ns, err := v.S.Neighbors(u)
		if err != nil {
			return graph.Edge{}, err
		}
		if len(ns) == 0 {
			continue
		}
		w := ns[rng.Intn(len(ns))]
		return graph.Edge{U: u, V: w}.Canonical(), nil
	}
	return graph.Edge{}, fmt.Errorf("linegraph: could not find a start edge (graph may have no edges)")
}

// MaxDegree bounds the maximum degree of G' given the maximum degree of G:
// both endpoints can contribute at most maxDegG−1 other incident edges.
func MaxDegree(maxDegG int) int {
	if maxDegG < 1 {
		return 0
	}
	return 2 * (maxDegG - 1)
}
