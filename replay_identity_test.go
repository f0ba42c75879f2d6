package repro

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/motif"
)

// TestFusedReplayBitIdentity is the fused-replay determinism sweep: for
// every registered task kind, under both a serial and a multi-walker
// recording, ONE fused pass feeding all aggregators must reproduce the
// task's solo replay bit for bit. The fused pass interleaves every task's
// VisitStep on each step, so this pins the contract that fusion is pure
// scheduling: each aggregator still sees exactly its own Add sequence, in
// the same order, over the same floats.
func TestFusedReplayBitIdentity(t *testing.T) {
	g, err := GenerateStandIn("facebook", 1.0, 2018)
	if err != nil {
		t.Fatal(err)
	}
	pairs := pairsFromCensus(t, g, 4)
	reqs := []TaskRequest{
		{Kind: "pairs", Pairs: pairs},
		{Kind: "size"},
		{Kind: "census", Top: 10},
		{Kind: "motif", Motif: MotifWedges, Pairs: pairs[:1]},
		{Kind: "motif", Motif: MotifTriangles},
		{Kind: "assortativity"},
		{Kind: "assortativity", Variant: "label"},
	}
	for _, walkers := range []int{1, 4} {
		traj, err := RecordTrajectory(g, MultiPairOptions{
			Samples: 800,
			BurnIn:  150,
			Seed:    21,
			Walkers: walkers,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, tasks, err := buildTasks(reqs)
		if err != nil {
			t.Fatal(err)
		}
		fusedOuts, fusedErrs := core.RunTasksFused(traj, tasks)
		for qi, task := range tasks {
			if fusedErrs[qi] != nil {
				t.Fatalf("walkers=%d: fused task %d (%s) failed: %v", walkers, qi, task.Kind(), fusedErrs[qi])
			}
			single, err := soloReplay(traj, reqs[qi], task)
			if err != nil {
				t.Fatalf("walkers=%d: solo task %d (%s) failed: %v", walkers, qi, task.Kind(), err)
			}
			if !reflect.DeepEqual(single, fusedOuts[qi]) {
				t.Errorf("walkers=%d: task %d (%s): fused result differs from solo replay\nfused: %#v\nsolo:  %#v",
					walkers, qi, task.Kind(), fusedOuts[qi], single)
			}
		}
	}
}

// soloReplay replays one request without the other tasks of the batch:
// label pairs and motif pairs one pair per pass, every other kind as a
// one-task pass.
func soloReplay(traj *core.Trajectory, req TaskRequest, task core.EstimationTask) (any, error) {
	switch req.Kind {
	case "pairs":
		var out []core.PairEstimates
		for _, p := range req.Pairs {
			pe, err := core.EstimateManyPairs(traj, []LabelPair{p})
			if err != nil {
				return nil, err
			}
			out = append(out, pe...)
		}
		return out, nil
	case "motif":
		rowPairs := [][]LabelPair{nil}
		if len(req.Pairs) > 0 {
			rowPairs = rowPairs[:0]
			for i := range req.Pairs {
				rowPairs = append(rowPairs, req.Pairs[i:i+1])
			}
		}
		var res motif.TaskResult
		for _, p := range rowPairs {
			out, err := core.RunTask(traj, "motif", core.TaskParams{Motif: req.Motif, Pairs: p})
			if err != nil {
				return nil, err
			}
			r := out.(motif.TaskResult)
			rows := append(res.Rows, r.Rows...)
			res, res.Rows = r, rows
		}
		return res, nil
	default:
		outs, errs := core.RunTasksFused(traj, []core.EstimationTask{task})
		return outs[0], errs[0]
	}
}
