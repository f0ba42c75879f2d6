package repro

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDefaultBurnInHonoursCancel: at BurnIn 0 every entry point resolves the
// default burn-in first, a mixing-time measurement of over 0.1 s on the
// pokec stand-in at scale 1. A cancelled Ctx ends the call before the first
// power-iteration step, so each call returns context.Canceled at once. The
// fastest of three calls is timed, so a scheduling stall on a busy host does
// not fail the test.
func TestDefaultBurnInHonoursCancel(t *testing.T) {
	g, err := GenerateStandIn("pokec", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := map[string]func() error{
		"EstimateSize": func() error {
			_, err := EstimateSize(g, SizeOptions{Seed: 1, Ctx: ctx})
			return err
		},
		"DiscoverLabelPairsOpts": func() error {
			_, err := DiscoverLabelPairsOpts(g, CensusOptions{Seed: 1, Ctx: ctx})
			return err
		},
	}
	for _, m := range Methods() {
		calls["EstimateTargetEdges/"+string(m)] = func() error {
			_, err := EstimateTargetEdges(g, LabelPair{T1: 1, T2: 2}, EstimateOptions{Method: m, Seed: 1, Ctx: ctx})
			return err
		}
	}
	for name, call := range calls {
		fastest := time.Duration(1 << 62)
		for range 3 {
			start := time.Now()
			err := call()
			fastest = min(fastest, time.Since(start))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: want context.Canceled, got %v", name, err)
			}
		}
		if fastest > 20*time.Millisecond {
			t.Errorf("%s: returned after %v with a cancelled Ctx, want at most 20ms", name, fastest)
		}
	}
}
