package repro

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/osn/httpsrc"
	"repro/internal/osn/httpsrc/faultsim"
	"repro/internal/stats"
)

// oneListPerNode returns "" when every visit of a node in t carries an
// equal friend list, whichever walker stands on it and whether as a start
// or a step, and that list is the node's friend list in g, the graph the
// recording read. Otherwise it describes the first visit whose list differs
// from the node's first visit's or from g's.
func oneListPerNode(t *core.Trajectory, g *graph.Graph) string {
	lists := map[graph.Node][]graph.Node{}
	differs := func(u graph.Node, ns []graph.Node) string {
		first, seen := lists[u]
		switch {
		case seen && !slices.Equal(first, ns):
			return "differs from the node's earlier visit"
		case !slices.Equal(ns, g.Neighbors(u)):
			return "is not the node's friend list in the graph"
		}
		lists[u] = ns
		return ""
	}
	for w := range t.NumWalkers() {
		if why := differs(t.StartNode(w), t.StartNeighbors(w)); why != "" {
			return fmt.Sprintf("walker %d's start at node %d carries a friend list that %s", w, t.StartNode(w), why)
		}
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			if why := differs(t.StepNode(i), t.StepNeighbors(i)); why != "" {
				return fmt.Sprintf("step %d at node %d carries a friend list that %s", i, t.StepNode(i), why)
			}
		}
	}
	return ""
}

// TestEveryVisitCarriesOneFriendList pins the invariant that lets a
// trajectory store each node's friend list once: within one recording,
// every visit of a node, by any walker, as a start or a step, carries an
// equal friend list, because every visit reads the session's one
// crawl-cache response for the node; and that list is the node's friend
// list in the graph the recording read, which a trajectory that stores one
// copy per node must keep intact. It records through each path that
// produces a trajectory: an in-memory graph source at one and at three
// walkers; an HTTP source against an upstream that answers 503 to the first
// friend-list requests (retried) and lists every node's friends in reverse;
// a top-up (core.ResumeRecording) of a recording made before an edge churn;
// and a Recorder extended across several calls, snapshotted after each.
func TestEveryVisitCarriesOneFriendList(t *testing.T) {
	g, err := GenerateStandIn("facebook", 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(walkers int) core.Options {
		return core.Options{BurnIn: 50, Rng: stats.NewSeedSequence(3).NextRand(), Start: -1,
			Walkers: walkers, Seed: stats.Derive(3, "fleet")}
	}
	session := func(src osn.Source) *osn.Session {
		s, err := osn.NewSessionFrom(src, osn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	check := func(name string, traj *core.Trajectory, g *graph.Graph) {
		t.Helper()
		if traj.Samples() < 100 {
			t.Fatalf("%s: only %d steps", name, traj.Samples())
		}
		if v := oneListPerNode(traj, g); v != "" {
			t.Errorf("%s: %s", name, v)
		}
	}

	for _, walkers := range []int{1, 3} {
		traj, err := core.RecordTrajectory(session(osn.NewGraphSource(g)), 2*g.NumNodes(), opts(walkers))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("graph source, %d walkers", walkers), traj, g)
	}

	up := faultsim.New(g)
	defer up.Close()
	up.SetSchedule(func(call int64, endpoint string, _ graph.Node) *faultsim.Fault {
		f := &faultsim.Fault{Friends: func(_ graph.Node, adj []graph.Node) []graph.Node {
			slices.Reverse(adj)
			return adj
		}}
		if endpoint == "neighbors" && call <= 4 {
			f.Status = 503
		}
		return f
	})
	c, err := httpsrc.New(httpsrc.Config{BaseURL: up.URL(), Backoff: time.Millisecond, MaxBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	traj, err := core.RecordTrajectory(session(c), 400, opts(2))
	if err != nil {
		t.Fatal(err)
	}
	if l := up.Ledger(); l.Neighbors <= int64(len(l.PerNode)) {
		t.Errorf("the upstream saw %d friend-list requests for %d nodes: no 503 was retried", l.Neighbors, len(l.PerNode))
	}
	check("HTTP source", traj, g)

	old, err := core.RecordTrajectory(session(osn.NewGraphSource(g)), g.NumNodes(), opts(2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.Churn(g, 0.02, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	topped, st, err := core.ResumeRecording(session(osn.NewGraphSource(g1)), g1, old, g1.NumNodes(), opts(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.StaleSteps == 0 || st.InheritedSteps == 0 {
		t.Errorf("top-up inherited %d steps and re-recorded %d; the test needs both", st.InheritedSteps, st.StaleSteps)
	}
	check("top-up", topped, g1)

	rec, err := core.NewRecorder(session(osn.NewGraphSource(g)), 0, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 3; call++ {
		if _, _, err := rec.Extend(300); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("recorder after %d extensions", call), rec.Trajectory(), g)
	}
}

// TestListsBoundedByTwiceTheEdges pins the memory bound of storing each
// friend list once: a recording of k = 4|V| steps on the facebook stand-in
// holds at most 2|E| list entries (8|E| bytes), whatever its length, since
// each node the walk stands on keeps its one list of d(u) entries.
func TestListsBoundedByTwiceTheEdges(t *testing.T) {
	g, err := GenerateStandIn("facebook", 1, 2018)
	if err != nil {
		t.Fatal(err)
	}
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := 4 * g.NumNodes()
	traj, err := core.RecordTrajectory(s, k, core.Options{BurnIn: 100, Rng: stats.NewSeedSequence(9).NextRand(), Start: -1})
	if err != nil {
		t.Fatal(err)
	}
	entries, bound := len(traj.Data().Arena), 2*g.NumEdges()
	t.Logf("%d steps, %d list entries, 2|E| = %d", traj.Samples(), entries, bound)
	if traj.Samples() != k || int64(entries) > bound {
		t.Errorf("%d steps hold %d list entries, want %d steps and at most 2|E| = %d entries", traj.Samples(), entries, k, bound)
	}
}
