package repro

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates the golden files (testdata/golden_serial.json,
// testdata/golden_entrypoints.json, testdata/golden_manylabels.json) instead
// of comparing against them:
// go test -run TestSerialGolden -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files")

const goldenPath = "testdata/golden_serial.json"

// goldenCase pins the exact output of one serial (single-walker) estimation
// run. The concurrent-access-layer refactor must keep the W=1 path
// bit-identical to the original serial implementation; these cases were
// recorded against the pre-refactor code and guard that contract.
type goldenCase struct {
	Method   string  `json:"method"`
	Estimate float64 `json:"estimate"`
	Samples  int     `json:"samples"`
	APICalls int64   `json:"api_calls"`
}

func goldenRun(t testing.TB) []goldenCase {
	t.Helper()
	g, err := GenerateStandIn("facebook", 0.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	pair := LabelPair{T1: 1, T2: 2}
	out := make([]goldenCase, 0, len(Methods()))
	for _, m := range Methods() {
		res, err := EstimateTargetEdges(g, pair, EstimateOptions{
			Method: m,
			Budget: 0.1,
			BurnIn: 200,
			Seed:   9,
		})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		out = append(out, goldenCase{
			Method:   string(res.Method),
			Estimate: res.Estimate,
			Samples:  res.Samples,
			APICalls: res.APICalls,
		})
	}
	return out
}

// TestSerialGolden asserts that single-walker estimates are bit-identical to
// the recorded pre-refactor serial outputs for a fixed graph and seed.
func TestSerialGolden(t *testing.T) {
	got := goldenRun(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (rerun with -update-golden to regenerate): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Method != w.Method || g.Samples != w.Samples || g.APICalls != w.APICalls ||
			math.Float64bits(g.Estimate) != math.Float64bits(w.Estimate) {
			t.Errorf("case %d: got %+v, want %+v (serial path must stay bit-identical)", i, g, w)
		}
	}
}
