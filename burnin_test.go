package repro

import (
	"context"
	"errors"
	"reflect"
	"runtime"
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

// TestEstimateSizeReadsBurnInMemo: at BurnIn 0 EstimateSize takes its
// burn-in, the mixing time T plus 10, from the per-graph memo behind
// walk.BurnIn, so only the first call on a graph measures T. A later call
// allocates what the same call with its burn-in given does, instead of the
// three |V|-length vectors a measurement iterates over.
func TestEstimateSizeReadsBurnInMemo(t *testing.T) {
	g, err := GenerateStandIn("pokec", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := SizeOptions{Samples: 400, Seed: 3}
	first, err := EstimateSize(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	given := opts
	given.BurnIn = first.BurnIn
	allocated := func(o SizeOptions) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := EstimateSize(g, o)
		runtime.ReadMemStats(&after)
		if err != nil || !reflect.DeepEqual(res, first) {
			t.Fatalf("EstimateSize(BurnIn %d) = %+v, %v; want %+v", o.BurnIn, res, err, first)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	memo, explicit := allocated(opts), allocated(given)
	if vec := 8 * uint64(g.NumNodes()); memo > explicit+vec {
		t.Errorf("EstimateSize at BurnIn 0 allocated %d B, at BurnIn %d %d B: it measured the mixing time again (one |V|-length vector is %d B)",
			memo, first.BurnIn, explicit, vec)
	}
}
