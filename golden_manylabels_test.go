package repro

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/osn"
	"repro/internal/stats"
)

const manyLabelGoldenPath = "testdata/golden_manylabels.json"

// Every pinned walk of the many-label golden: a fixed sample count and
// burn-in on the pokec stand-in at scale 0.3, whose 150 region labels put
// each walk's referenced label set well past 64.
const (
	manyLabelSamples = 200
	manyLabelBurnIn  = 100
)

func manyLabelGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := GenerateStandIn("pokec", 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// manyLabelPairs returns every 8th of g's 64 most frequent label pairs, most
// frequent first.
func manyLabelPairs(g *Graph) []LabelPair {
	census := exact.LabelPairCensus(g) // ascending by count
	pairs := make([]LabelPair, 0, 8)
	for i := 0; i < 64; i += 8 {
		pairs = append(pairs, census[len(census)-1-i].Pair)
	}
	return pairs
}

// manyLabelRun calls the pair, census, motif and single-pair entry points on
// the many-label stand-in at one and four walkers.
func manyLabelRun(t testing.TB) []entryPointCase {
	t.Helper()
	g := manyLabelGraph(t)
	pairs := manyLabelPairs(g)
	var out goldenCases
	add := out.add
	for _, w := range []int{1, 4} {
		tag := fmt.Sprintf("W=%d", w)
		mopts := MultiPairOptions{Samples: manyLabelSamples, BurnIn: manyLabelBurnIn, Seed: 17, Walkers: w}
		mr, err := EstimateManyPairs(g, pairs, mopts)
		add("EstimateManyPairs/"+tag, mr, err)
		br, err := EstimateBatch(g, mopts,
			TaskRequest{Kind: "pairs", Pairs: pairs},
			TaskRequest{Kind: "census"},
			TaskRequest{Kind: "census", Top: 10},
			TaskRequest{Kind: "motif", Motif: MotifWedges, Pairs: pairs},
			TaskRequest{Kind: "motif", Motif: MotifTriangles, Pairs: pairs},
		)
		add("EstimateBatch/"+tag, br, err)
		opts := EstimateOptions{Samples: manyLabelSamples, BurnIn: manyLabelBurnIn, Seed: 13, Walkers: w}
		for k, pair := range pairs {
			for _, m := range Methods() {
				o := opts
				o.Method = m
				r, err := EstimateTargetEdges(g, pair, o)
				add(fmt.Sprintf("EstimateTargetEdges/%s/pair%d/%s", tag, k, m), r, err)
			}
		}
	}
	return out
}

// referencedLabels counts the distinct labels carried by the nodes t
// references: walker starts, step endpoints and every recorded friend list.
func referencedLabels(t *core.Trajectory) int {
	lr, d := t.Labels(), t.Data()
	seen := make(map[Label]struct{})
	for _, col := range [][]Node{d.StartNode, d.Prev, d.Node, d.Arena} {
		for _, u := range col {
			for _, l := range lr.Labels(u) {
				seen[l] = struct{}{}
			}
		}
	}
	return len(seen)
}

// manyLabelWalks re-records every walk manyLabelRun pins at w walkers, the
// way the entry points record them: the shared walk of EstimateManyPairs and
// EstimateBatch, the walk behind EstimateTargetEdges' named paper methods,
// and Auto's pilot and main walk. Each re-recording is checked against the
// entry point's answer, so the label count is asserted on the very walk the
// golden pins.
func manyLabelWalks(t *testing.T, g *Graph, pair LabelPair, w int) map[string]*core.Trajectory {
	t.Helper()
	walks := make(map[string]*core.Trajectory)
	mopts := MultiPairOptions{Samples: manyLabelSamples, BurnIn: manyLabelBurnIn, Seed: 17, Walkers: w}
	shared, err := RecordTrajectory(g, mopts)
	if err != nil {
		t.Fatal(err)
	}
	walks["shared"] = shared

	// replay answers method m from traj, as EstimateTargetEdges does from
	// the walk it records.
	replay := func(traj *core.Trajectory, m Method) float64 {
		prs, err := core.EstimateManyPairs(traj, []LabelPair{pair})
		if err != nil {
			t.Fatal(err)
		}
		return map[Method]float64{
			NeighborSampleHH:      prs[0].NS.HH,
			NeighborSampleHT:      prs[0].NS.HT,
			NeighborExplorationHH: prs[0].NE.HH,
			NeighborExplorationHT: prs[0].NE.HT,
			NeighborExplorationRW: prs[0].NE.RW,
		}[m]
	}
	opts := EstimateOptions{Samples: manyLabelSamples, BurnIn: manyLabelBurnIn, Seed: 13, Walkers: w}
	session := func() *osn.Session {
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fleet := stats.Derive(opts.Seed, "multiwalk")
	named, err := core.RecordTrajectory(session(), manyLabelSamples, core.Options{
		BurnIn: manyLabelBurnIn, Rng: stats.NewSeedSequence(opts.Seed).NextRand(), Start: -1, Walkers: w, Seed: fleet,
	})
	if err != nil {
		t.Fatal(err)
	}
	walks["named"] = named

	rng := stats.NewSeedSequence(opts.Seed).NextRand()
	pilot, err := core.RecordTrajectory(session(), max(manyLabelSamples/10, 20), core.Options{BurnIn: manyLabelBurnIn, Rng: rng, Start: -1})
	if err != nil {
		t.Fatal(err)
	}
	walks["auto-pilot"] = pilot
	autoMain, err := core.RecordTrajectory(session(), manyLabelSamples, core.Options{
		BurnIn: manyLabelBurnIn, Rng: rng, Start: -1, Walkers: w, Seed: fleet,
	})
	if err != nil {
		t.Fatal(err)
	}
	walks["auto-main"] = autoMain

	for _, c := range []struct {
		m    Method
		traj *core.Trajectory
	}{{NeighborSampleHH, named}, {NeighborExplorationRW, named}, {Auto, autoMain}} {
		o := opts
		o.Method = c.m
		r, err := EstimateTargetEdges(g, pair, o)
		if err != nil {
			t.Fatal(err)
		}
		m := c.m
		if m == Auto {
			m = r.Method
		}
		if got := replay(c.traj, m); math.Float64bits(got) != math.Float64bits(r.Estimate) {
			t.Fatalf("W=%d %s: re-recorded walk replays to %v, the entry point answered %v", w, c.m, got, r.Estimate)
		}
	}
	return walks
}

// TestManyLabelGolden pins every field of the pair, census, motif and
// single-pair answers on walks that reference more than 64 distinct labels,
// where the golden and identity tests on the two-label stand-ins do not
// reach. Regenerate deliberately with
// go test -run TestManyLabelGolden -update-golden .
func TestManyLabelGolden(t *testing.T) {
	g := manyLabelGraph(t)
	pairs := manyLabelPairs(g)
	for _, w := range []int{1, 4} {
		for name, traj := range manyLabelWalks(t, g, pairs[0], w) {
			if n := referencedLabels(traj); n <= 64 {
				t.Errorf("W=%d %s walk references %d distinct labels, want more than 64", w, name, n)
			}
		}
	}

	checkGolden(t, manyLabelGoldenPath, manyLabelRun(t))
}
