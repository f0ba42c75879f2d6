package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/osn"
)

// TopUpStats describes what an incremental re-recording inherited from a
// stale trajectory and what it had to re-buy.
type TopUpStats struct {
	// TotalSteps is the new trajectory's sample count.
	TotalSteps int
	// StaleSteps is how many of those steps visit a node whose recorded
	// response had changed — steps whose data had to be re-fetched upstream.
	StaleSteps int
	// InheritedSteps is TotalSteps - StaleSteps: steps served from the old
	// recording's still-valid responses.
	InheritedSteps int
	// APICalls is the new trajectory's billed cost — identical to a fresh
	// recording's bill by construction.
	APICalls int64
	// PrepaidHits is how many of those billed calls were served from the old
	// trajectory instead of the upstream source.
	PrepaidHits int64
	// ChargedCalls is APICalls - PrepaidHits: the upstream spend the top-up
	// actually incurred.
	ChargedCalls int64
}

// prepaidResponses collects the old trajectory's recorded responses that are
// still exact on g — the carry-over capital a top-up redeems instead of
// re-buying. It walks the old trajectory's distinct nodes: each start and
// step node's friend list is stored once.
func prepaidResponses(old *Trajectory, g *graph.Graph) map[graph.Node][]graph.Node {
	resp := make(map[graph.Node][]graph.Node, len(old.listNode))
	for j, u := range old.listNode {
		if u < 0 || int(u) >= g.NumNodes() {
			continue
		}
		if cur := g.Neighbors(u); slices.Equal(old.list(int32(j)), cur) {
			resp[u] = cur // share g's backing array, not the old arena
		}
	}
	return resp
}

// ResumeRecording records a trajectory on the current graph g while
// redeeming the still-valid responses of a stale trajectory old instead of
// re-fetching them upstream. The recording re-runs deterministically from
// opts (same seeds, same budget rule), so the result is bit-identical to
// what RecordTrajectory would produce fresh on g — the partial-invalidation
// invariant the serving layer's caches rely on — but every node whose
// response survived the graph change is served from old at zero upstream
// cost: the bill that matters is TopUpStats.ChargedCalls, not APICalls.
//
// s must be a fresh session over g (or a source equivalent to it) with no
// calls spent; opts must equal the original recording's options for the
// bit-identity guarantee to hold.
func ResumeRecording(s *osn.Session, g *graph.Graph, old *Trajectory, k int, opts Options) (*Trajectory, TopUpStats, error) {
	var st TopUpStats
	if old == nil {
		return nil, st, fmt.Errorf("core: ResumeRecording needs a previous trajectory")
	}
	if s.NumNodes() != g.NumNodes() {
		return nil, st, fmt.Errorf("core: session spans %d nodes, graph %d", s.NumNodes(), g.NumNodes())
	}
	prepaid := prepaidResponses(old, g)
	s.Prepay(prepaid)
	t, err := RecordTrajectory(s, k, opts)
	if err != nil {
		return nil, st, err
	}
	t.GraphVersion = g.Version()
	t.GraphFingerprint = g.Fingerprint()

	st.TotalSteps = t.Samples()
	for i := 0; i < t.Samples(); i++ {
		if _, ok := prepaid[t.StepNode(i)]; ok {
			st.InheritedSteps++
		} else {
			st.StaleSteps++
		}
	}
	st.APICalls = t.APICalls
	st.PrepaidHits = s.PrepaidHits()
	st.ChargedCalls = st.APICalls - st.PrepaidHits
	if st.ChargedCalls < 0 {
		st.ChargedCalls = 0
	}
	return t, st, nil
}
