package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// churnedCopy applies ~frac edge churn to g and returns the patched graph.
func churnedCopy(t *testing.T, g *graph.Graph, frac float64, seed int64) *graph.Graph {
	t.Helper()
	d, err := gen.Churn(g, frac, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("churn produced an empty delta")
	}
	ng, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// resumeMatchesFresh pins the partial-invalidation invariant: a top-up on
// the churned graph must be bit-identical — same columns, same bill — to a
// fresh recording on that graph, while actually paying upstream only for
// the invalidated part.
func resumeMatchesFresh(t *testing.T, mkOpts func() Options, k int) {
	t.Helper()
	g0 := genderGraph(t, 33)
	old, err := RecordTrajectory(newSession(t, g0), k, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	g1 := churnedCopy(t, g0, 0.01, 2)

	fresh, err := RecordTrajectory(newSession(t, g1), k, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	sResume := newSession(t, g1)
	topped, st, err := ResumeRecording(sResume, g1, old, k, mkOpts())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(fresh.Data(), topped.Data()) {
		t.Fatal("topped-up trajectory columns differ from a fresh recording on the churned graph")
	}
	if topped.APICalls != fresh.APICalls {
		t.Errorf("topped-up bill %d calls, fresh bill %d — billing must be identical", topped.APICalls, fresh.APICalls)
	}
	if topped.GraphVersion != g1.Version() || topped.GraphFingerprint != g1.Fingerprint() {
		t.Errorf("top-up stamped version/fp %d/%x, want %d/%x",
			topped.GraphVersion, topped.GraphFingerprint, g1.Version(), g1.Fingerprint())
	}

	if st.TotalSteps != topped.Samples() {
		t.Errorf("stats.TotalSteps = %d, trajectory has %d", st.TotalSteps, topped.Samples())
	}
	if st.StaleSteps+st.InheritedSteps != st.TotalSteps {
		t.Errorf("stale %d + inherited %d != total %d", st.StaleSteps, st.InheritedSteps, st.TotalSteps)
	}
	if st.InheritedSteps == 0 {
		t.Error("1% churn should leave most recorded responses reusable, got 0 inherited steps")
	}
	if st.PrepaidHits == 0 {
		t.Error("top-up redeemed nothing from the old trajectory")
	}
	if st.ChargedCalls >= st.APICalls {
		t.Errorf("top-up charged %d of %d calls upstream — no saving", st.ChargedCalls, st.APICalls)
	}
	if st.APICalls != topped.APICalls {
		t.Errorf("stats.APICalls = %d, trajectory says %d", st.APICalls, topped.APICalls)
	}
	if got := sResume.PrepaidHits(); got != st.PrepaidHits {
		t.Errorf("session reports %d prepaid hits, stats %d", got, st.PrepaidHits)
	}
}

func TestResumeRecordingBitIdentitySerial(t *testing.T) {
	resumeMatchesFresh(t, func() Options {
		return Options{BurnIn: 100, Rng: rand.New(rand.NewSource(21)), Start: -1, BudgetDriven: true}
	}, 4000)
}

func TestResumeRecordingBitIdentityParallel(t *testing.T) {
	resumeMatchesFresh(t, func() Options {
		return Options{BurnIn: 100, Rng: rand.New(rand.NewSource(22)), Start: -1,
			BudgetDriven: true, Walkers: 3, Seed: 404}
	}, 4000)
}

func TestResumeRecordingRejectsBadInputs(t *testing.T) {
	g := genderGraph(t, 34)
	opts := Options{BurnIn: 10, Rng: rand.New(rand.NewSource(1)), Start: -1}
	if _, _, err := ResumeRecording(newSession(t, g), g, nil, 100, opts); err == nil {
		t.Error("ResumeRecording accepted a nil previous trajectory")
	}
}
