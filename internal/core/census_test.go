package core

import (
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/osn"
)

// estimateCensus records k samples over s under opts and replays the
// "census" task over the recording.
func estimateCensus(s *osn.Session, k int, opts Options) (CensusResult, error) {
	traj, err := RecordTrajectory(s, k, opts)
	if err != nil {
		return CensusResult{}, err
	}
	out, err := RunTask(traj, "census", TaskParams{})
	if err != nil {
		return CensusResult{}, err
	}
	return out.(CensusResult), nil
}

func TestEstimateCensusValidation(t *testing.T) {
	g := genderGraph(t, 71)
	s := newSession(t, g)
	if _, err := estimateCensus(s, 0, DefaultOptions(10, newRng(1))); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := estimateCensus(s, 10, Options{BurnIn: 10, Start: -1}); err == nil {
		t.Error("want error for nil Rng")
	}
}

func TestEstimateCensusMatchesExact(t *testing.T) {
	g := genderGraph(t, 72)
	exactCensus := exact.LabelPairCensus(g)
	truth := make(map[graph.LabelPair]int64, len(exactCensus))
	for _, pc := range exactCensus {
		truth[pc.Pair] = pc.Count
	}

	// Average over repetitions for a stable comparison.
	sums := make(map[graph.LabelPair]float64)
	const reps = 80
	for i := 0; i < reps; i++ {
		s := newSession(t, g)
		res, err := estimateCensus(s, 400, DefaultOptions(150, newRng(int64(5000+i))))
		if err != nil {
			t.Fatal(err)
		}
		for _, pe := range res.Pairs {
			sums[pe.Pair] += pe.Estimate
		}
	}
	// Gender graphs have three pairs: (1,1), (1,2), (2,2) — all abundant,
	// so each must be estimated within ~10%.
	for pair, want := range truth {
		got := sums[pair] / reps
		if math.Abs(got-float64(want))/float64(want) > 0.10 {
			t.Errorf("pair %v: mean estimate %.0f, truth %d", pair, got, want)
		}
	}
}

func TestEstimateCensusSortedDescending(t *testing.T) {
	g := rareLabelGraph(t, 73)
	s := newSession(t, g)
	res, err := estimateCensus(s, 500, DefaultOptions(200, newRng(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("empty census")
	}
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i-1].Estimate < res.Pairs[i].Estimate {
			t.Fatalf("census not sorted at %d", i)
		}
	}
	if res.APICalls <= 0 || res.Samples != 500 {
		t.Errorf("accounting wrong: %+v calls, %d samples", res.APICalls, res.Samples)
	}
}

func TestEstimateCensusEstimatesSumToEdgeMass(t *testing.T) {
	// With single-label nodes, every edge carries exactly one pair, so the
	// census estimates must sum to exactly |E|.
	g := genderGraph(t, 74)
	s := newSession(t, g)
	res, err := estimateCensus(s, 300, DefaultOptions(100, newRng(4)))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, pe := range res.Pairs {
		sum += pe.Estimate
	}
	if math.Abs(sum-float64(g.NumEdges())) > 1e-6*float64(g.NumEdges()) {
		t.Errorf("census estimates sum to %.1f, want |E| = %d", sum, g.NumEdges())
	}
}
