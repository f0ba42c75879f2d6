package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
)

// manyLabelGraph is the pokec stand-in at scale 0.3: its 150 region labels
// put a few-hundred-step walk's referenced label set past 64.
func manyLabelGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Build(gen.Pokec, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// manyLabelTrajectory records k samples with the given walker count on g,
// bound to g's labels. Equal arguments record identical trajectories.
func manyLabelTrajectory(t testing.TB, g *graph.Graph, k, walkers int) *Trajectory {
	t.Helper()
	traj, err := RecordTrajectory(newSession(t, g), k, Options{
		BurnIn: 100, Rng: rand.New(rand.NewSource(3)), Start: -1, Walkers: walkers, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// frequentPairs returns every step-th of g's n·step most frequent label
// pairs, most frequent first.
func frequentPairs(g *graph.Graph, n, step int) []graph.LabelPair {
	census := exact.LabelPairCensus(g) // ascending by count
	pairs := make([]graph.LabelPair, 0, n)
	for i := 0; i < n*step; i += step {
		pairs = append(pairs, census[len(census)-1-i].Pair)
	}
	return pairs
}

// referencedLabelCount counts the distinct labels of every node t references.
func referencedLabelCount(t *Trajectory) int {
	seen := make(map[graph.Label]struct{})
	for _, col := range [][]graph.Node{t.startNode, t.prev, t.node, t.arena} {
		for _, u := range col {
			for _, l := range t.labels.Labels(u) {
				seen[l] = struct{}{}
			}
		}
	}
	return len(seen)
}

// referenceCensus counts, step by step through Labels, the steps whose edge
// carries each label pair.
func referenceCensus(t *Trajectory, lr LabelReader) map[graph.LabelPair]int {
	hits := make(map[graph.LabelPair]int)
	for i := range t.Samples() {
		pairs := make(map[graph.LabelPair]bool)
		for _, a := range lr.Labels(t.StepPrev(i)) {
			for _, b := range lr.Labels(t.StepNode(i)) {
				pairs[graph.LabelPair{T1: a, T2: b}.Canonical()] = true
			}
		}
		for p := range pairs {
			hits[p]++
		}
	}
	return hits
}

// censusAnswer replays kind "census" at top over t.
func censusAnswer(t testing.TB, traj *Trajectory, top int) CensusResult {
	t.Helper()
	out, err := RunTask(traj, "census", TaskParams{Top: top})
	if err != nil {
		t.Fatal(err)
	}
	return out.(CensusResult)
}

// perStepTargetDegree computes T(u) for a recorded step from the step's
// friend list, reading each label through HasLabel; explores reports whether
// the node carries a target label (Algorithm 2 line 4).
func perStepTargetDegree(labels LabelReader, u graph.Node, nbrs []graph.Node, pair graph.LabelPair) (tt int, explores bool) {
	hasT1 := labels.HasLabel(u, pair.T1)
	hasT2 := labels.HasLabel(u, pair.T2)
	if !hasT1 && !hasT2 {
		return 0, false
	}
	for _, v := range nbrs {
		if hasT1 && labels.HasLabel(v, pair.T2) || hasT2 && labels.HasLabel(v, pair.T1) {
			tt++
		}
	}
	return tt, true
}

// TestLabelColumnsMatchPerStepReads checks the memoized columns against
// direct reads through the LabelReader, at every step of a trajectory that
// references more than 64 distinct labels. Each case asks a fresh recording
// for its pair sets in turn: one pair at a time, all 8 at once, a set that
// repeats a pair (once in the other orientation), and a set past
// maxMemoPairs. Equal pairs in one set must share one column.
func TestLabelColumnsMatchPerStepReads(t *testing.T) {
	g := manyLabelGraph(t)
	pairs := frequentPairs(g, 8, 8)
	swap := func(p graph.LabelPair) graph.LabelPair { return graph.LabelPair{T1: p.T2, T2: p.T1} }
	single := make([][]graph.LabelPair, len(pairs))
	for k, p := range pairs {
		single[k] = []graph.LabelPair{p}
	}
	cases := []struct {
		name string
		sets [][]graph.LabelPair
	}{
		{"one pair at a time", single},
		{"all 8 at once", [][]graph.LabelPair{pairs}},
		{"repeated pair", [][]graph.LabelPair{{pairs[0], pairs[1], pairs[0], swap(pairs[1])}}},
		{"past maxMemoPairs", [][]graph.LabelPair{frequentPairs(g, maxMemoPairs+4, 2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			traj := manyLabelTrajectory(t, g, 400, 2)
			if n := referencedLabelCount(traj); n <= 64 {
				t.Fatalf("trajectory references %d distinct labels, want more than 64", n)
			}
			for _, set := range tc.sets {
				ps := make([]pairReplayState, len(set))
				for k, p := range set {
					ps[k].pair = p
				}
				traj.pairLabelColumns(ps, true, true)
				for k, pair := range set {
					flags := ps[k].target
					byOrder := [][]int32{traj.TargetDegrees(pair), traj.TargetDegrees(swap(pair))}
					for j := range k {
						if set[j].Canonical() == pair.Canonical() && (&ps[j].target[0] != &flags[0] || &ps[j].tt[0] != &ps[k].tt[0]) {
							t.Fatalf("pair %v at %d and %d of one set got separate columns", pair, j, k)
						}
					}
					for i := range traj.Samples() {
						a, b := traj.StepPrev(i), traj.StepNode(i)
						want := g.HasLabel(a, pair.T1) && g.HasLabel(b, pair.T2) || g.HasLabel(a, pair.T2) && g.HasLabel(b, pair.T1)
						if flags[i] != want {
							t.Fatalf("pair %v step %d: target flag %v, per-step read %v", pair, i, flags[i], want)
						}
						wantT := int32(-1)
						if d, explores := perStepTargetDegree(g, b, traj.StepNeighbors(i), pair); explores {
							wantT = int32(d)
						}
						if gotT := ps[k].tt[i]; gotT != wantT {
							t.Fatalf("pair %v step %d: T(u) column %d, per-step read %d", pair, i, gotT, wantT)
						}
						for _, tt := range byOrder {
							if gotT := tt[i]; gotT != wantT {
								t.Fatalf("pair %v step %d: TargetDegrees %d in either order, per-step read %d", pair, i, gotT, wantT)
							}
						}
					}
				}
			}
		})
	}

	traj := manyLabelTrajectory(t, g, 400, 2)
	hits := referenceCensus(traj, g)
	full := censusAnswer(t, traj, 0)
	if len(full.Pairs) != len(hits) {
		t.Fatalf("census has %d pairs, per-step count has %d", len(full.Pairs), len(hits))
	}
	for k, row := range full.Pairs {
		if row.Hits != hits[row.Pair] {
			t.Errorf("census pair %v: %d hits, per-step count %d", row.Pair, row.Hits, hits[row.Pair])
		}
		if want := float64(traj.NumEdges) * float64(row.Hits) / float64(traj.Samples()); row.Estimate != want {
			t.Errorf("census pair %v: estimate %v, want %v", row.Pair, row.Estimate, want)
		}
		if k > 0 && row.Estimate > full.Pairs[k-1].Estimate {
			t.Errorf("census row %d out of order", k)
		}
	}
	if top := censusAnswer(t, traj, 10); !reflect.DeepEqual(top.Pairs, full.Pairs[:10]) {
		t.Errorf("census top 10 is not the full census's first 10 rows")
	}
}

// TestLabelMemoCap replays more pairs than the memo keeps: every answer
// equals a one-pair replay, and exactly maxMemoPairs pairs stay memoized.
func TestLabelMemoCap(t *testing.T) {
	g := manyLabelGraph(t)
	pairs := frequentPairs(g, maxMemoPairs+8, 2)
	traj := manyLabelTrajectory(t, g, 400, 2)
	many, err := EstimateManyPairs(traj, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(traj.labelH.pairs); n != maxMemoPairs {
		t.Errorf("%d pairs memoized after a %d-pair replay, want %d", n, len(pairs), maxMemoPairs)
	}
	fresh := manyLabelTrajectory(t, g, 400, 2)
	for k, pair := range pairs {
		one, err := EstimateManyPairs(fresh, []graph.LabelPair{pair})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(many[k], one[0]) {
			t.Errorf("pair %v: %d-pair replay %+v, one-pair replay %+v", pair, len(pairs), many[k], one[0])
		}
	}
	// Replaying the memoized pairs again answers from the memo unchanged.
	again, err := EstimateManyPairs(traj, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, many) {
		t.Error("a second replay over the full memo changed its answers")
	}
	if n := len(traj.labelH.pairs); n != maxMemoPairs {
		t.Errorf("%d pairs memoized after a second replay, want %d", n, maxMemoPairs)
	}
}

// TestLabelMemoConcurrentReplays replays overlapping pair sets from 8
// goroutines over one trajectory, with more distinct pairs than the memo
// keeps, and checks every answer against a serial replay of an identical
// recording.
func TestLabelMemoConcurrentReplays(t *testing.T) {
	g := manyLabelGraph(t)
	pairs := frequentPairs(g, maxMemoPairs+4, 2)
	const goroutines = 8
	batch := func(r int) []EstimationTask {
		set := make([]graph.LabelPair, 6)
		for j := range set {
			set[j] = pairs[(2*r+j)%len(pairs)]
		}
		return []EstimationTask{
			pairsTask{pairs: set},
			pairsTask{pairs: set[:2], only: onlyNS},
			pairsTask{pairs: set[4:], only: onlyNE},
			censusTask{top: r},
		}
	}
	serial := manyLabelTrajectory(t, g, 400, 2)
	want := make([][]any, goroutines)
	for r := range want {
		outs, errs := RunTasksFused(serial, batch(r))
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		want[r] = outs
	}

	shared := manyLabelTrajectory(t, g, 400, 2)
	got := make([][]any, goroutines)
	var wg sync.WaitGroup
	for r := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs, errs := RunTasksFused(shared, batch(r))
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
			got[r] = outs
		}()
	}
	wg.Wait()
	for r := range goroutines {
		if !reflect.DeepEqual(got[r], want[r]) {
			t.Errorf("goroutine %d: concurrent answers differ from the serial replay", r)
		}
	}
}

// relabelled is a LabelReader that renames every label of an underlying
// reader through a cyclic shift of the label set.
type relabelled struct {
	lr       LabelReader
	to, from map[graph.Label]graph.Label
}

func newRelabelled(lr LabelReader, labels []graph.Label) *relabelled {
	r := &relabelled{lr: lr, to: make(map[graph.Label]graph.Label), from: make(map[graph.Label]graph.Label)}
	for i, l := range labels {
		m := labels[(i+1)%len(labels)]
		r.to[l], r.from[m] = m, l
	}
	return r
}

func (r *relabelled) Labels(u graph.Node) []graph.Label {
	var out []graph.Label
	for _, l := range r.lr.Labels(u) {
		out = append(out, r.to[l])
	}
	slices.Sort(out)
	return out
}

func (r *relabelled) HasLabel(u graph.Node, l graph.Label) bool {
	old, ok := r.from[l]
	return ok && r.lr.HasLabel(u, old)
}

// TestBindLabelsDropsLabelMemo rebinds a replayed trajectory to relabelled
// labels: the next replay answers for the new labels, not from the memo.
func TestBindLabelsDropsLabelMemo(t *testing.T) {
	g := manyLabelGraph(t)
	pairs := frequentPairs(g, 8, 8)
	traj := manyLabelTrajectory(t, g, 400, 2)
	before, err := EstimateManyPairs(traj, pairs)
	if err != nil {
		t.Fatal(err)
	}
	beforeCensus := censusAnswer(t, traj, 0)

	var labels []graph.Label
	for u := range g.NumNodes() {
		labels = append(labels, g.Labels(graph.Node(u))...)
	}
	slices.Sort(labels)
	rl := newRelabelled(g, slices.Compact(labels))
	traj.BindLabels(rl)

	// Under the renamed labels, pair (to[a], to[b]) holds exactly what pair
	// (a, b) held before.
	renamed := make([]graph.LabelPair, len(pairs))
	for k, p := range pairs {
		renamed[k] = graph.LabelPair{T1: rl.to[p.T1], T2: rl.to[p.T2]}
	}
	after, err := EstimateManyPairs(traj, renamed)
	if err != nil {
		t.Fatal(err)
	}
	same, err := EstimateManyPairs(traj, pairs)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for k := range pairs {
		after[k].Pair = pairs[k]
		if !reflect.DeepEqual(after[k], before[k]) {
			t.Errorf("pair %v renamed to %v: answer changed across the relabelling", pairs[k], renamed[k])
		}
		changed = changed || !reflect.DeepEqual(same[k], before[k])
	}
	if !changed {
		t.Error("no pair's answer changed after BindLabels to relabelled labels: the replay read the old memo")
	}

	hits := referenceCensus(traj, rl)
	afterCensus := censusAnswer(t, traj, 0)
	if len(afterCensus.Pairs) != len(hits) || len(afterCensus.Pairs) != len(beforeCensus.Pairs) {
		t.Fatalf("census after relabelling has %d pairs, want %d", len(afterCensus.Pairs), len(hits))
	}
	for _, row := range afterCensus.Pairs {
		if row.Hits != hits[row.Pair] {
			t.Errorf("census pair %v after relabelling: %d hits, per-step count %d", row.Pair, row.Hits, hits[row.Pair])
		}
	}
}

// TestWarmReplayAllocsFlatInSteps gates the memoized label columns and the
// streaming accumulators on a counter: once a trajectory has been replayed,
// replaying the same 8-pair pairs task and top-10 census again allocates the
// same bytes whatever the trajectory's length, at one walker and at two.
// Reading labels per replay instead allocates a T(u) column per pair per
// replay, 8 × 4 B per step, which at the 3,500-step difference below is
// about 112 KB; keeping every HH term for a lone walker's standard error
// instead of running batch sums allocates 8 B per step per estimator.
func TestWarmReplayAllocsFlatInSteps(t *testing.T) {
	g := manyLabelGraph(t)
	pairs := frequentPairs(g, 8, 8)
	spec, _ := LookupTask("pairs")
	pt, err := spec.NewTask(TaskParams{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ = LookupTask("census")
	ct, err := spec.NewTask(TaskParams{Top: 10})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []EstimationTask{pt, ct}
	for _, walkers := range []int{1, 2} {
		t.Run(fmt.Sprintf("W=%d", walkers), func(t *testing.T) {
			perReplay := func(k int) float64 {
				traj := manyLabelTrajectory(t, g, k, walkers)
				replay := func() {
					_, errs := RunTasksFused(traj, tasks)
					for _, err := range errs {
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				replay() // warm
				const runs = 20
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					replay()
				}
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc-before.TotalAlloc) / runs
			}
			short, long := perReplay(500), perReplay(4000)
			t.Logf("bytes per warm replay: %.0f at k=500, %.0f at k=4000", short, long)
			if long > short+4096 {
				t.Errorf("a warm replay of the k=4000 trajectory allocates %.0f B, %.0f B more than the k=500 one: the replay allocates per step", long, long-short)
			}
		})
	}
}
