package estimate

import (
	"math"
	"testing"
)

func TestCIFromEstimatesBasic(t *testing.T) {
	vals := []float64{10, 12, 8, 11, 9}
	ci := CIFromEstimates(vals)
	if !ci.Valid() {
		t.Fatalf("CI invalid: %+v", ci)
	}
	mean := 10.0
	if ci.Low >= mean || ci.High <= mean {
		t.Errorf("CI [%g, %g] must bracket the mean %g", ci.Low, ci.High, mean)
	}
	// sd = sqrt(10/4) ≈ 1.5811, se = sd/sqrt(5) ≈ 0.7071, z(0.95) ≈ 1.9600.
	wantSE := math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(ci.StdErr-wantSE) > 1e-9 {
		t.Errorf("StdErr = %g, want %g", ci.StdErr, wantSE)
	}
	z := (ci.High - mean) / ci.StdErr
	if math.Abs(z-1.959964) > 1e-3 {
		t.Errorf("z = %g, want ~1.96 for 95%%", z)
	}
	if ci.Walkers != 5 || ci.Level != 0.95 {
		t.Errorf("metadata: %+v", ci)
	}
}

func TestCIFromEstimatesDropsNonFinite(t *testing.T) {
	ci := CIFromEstimates([]float64{5, math.NaN(), 7, math.Inf(1)})
	if !ci.Valid() || ci.Walkers != 2 {
		t.Errorf("want a valid 2-walker CI, got %+v", ci)
	}
}

func TestCIFromEstimatesDegenerate(t *testing.T) {
	if ci := CIFromEstimates([]float64{5}); ci.Valid() {
		t.Errorf("one estimate must not yield a CI: %+v", ci)
	}
	if ci := CIFromEstimates(nil); ci.Valid() {
		t.Errorf("empty input must not yield a CI: %+v", ci)
	}
}

func TestJackknifeCIDegenerate(t *testing.T) {
	for _, lo := range [][]float64{nil, {4}} {
		if ci := JackknifeCI(5, lo); ci.Valid() || ci.Walkers != len(lo) {
			t.Errorf("%d leave-one-out estimates must not yield a CI: %+v", len(lo), ci)
		}
	}
}

// TestJackknifeCIByHand checks a W=3 interval computed by hand: the
// leave-one-out estimates 9, 10, 14 have mean 11 and squared deviations
// 4 + 1 + 9 = 14, so SE² = (2/3)·14 = 28/3, and the interval is centred on
// the pooled estimate, not on the leave-one-out mean.
func TestJackknifeCIByHand(t *testing.T) {
	ci := JackknifeCI(10.5, []float64{9, 10, 14})
	wantSE := math.Sqrt(28.0 / 3)
	if math.Abs(ci.StdErr-wantSE) > 1e-12 {
		t.Errorf("StdErr = %g, want %g", ci.StdErr, wantSE)
	}
	z := math.Sqrt2 * math.Erfinv(0.95)
	if math.Abs(ci.Low-(10.5-z*wantSE)) > 1e-12 || math.Abs(ci.High-(10.5+z*wantSE)) > 1e-12 {
		t.Errorf("interval [%g, %g], want 10.5 ± %g", ci.Low, ci.High, z*wantSE)
	}
	if !ci.Valid() || ci.Walkers != 3 || ci.Level != Level {
		t.Errorf("metadata: %+v", ci)
	}
}

func TestReweightedMerge(t *testing.T) {
	a, b, pooled := &Reweighted{}, &Reweighted{}, &Reweighted{}
	draws := []struct{ y, w float64 }{{1, 2}, {0, 3}, {1, 5}, {0, 1}}
	for i, d := range draws {
		var err error
		if i < 2 {
			err = a.Add(d.y, d.w)
		} else {
			err = b.Add(d.y, d.w)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := pooled.Add(d.y, d.w); err != nil {
			t.Fatal(err)
		}
	}
	a.Merge(b)
	if a.N() != pooled.N() {
		t.Errorf("merged N = %d, want %d", a.N(), pooled.N())
	}
	if math.Abs(a.Ratio()-pooled.Ratio()) > 1e-15 {
		t.Errorf("merged ratio %g != pooled %g", a.Ratio(), pooled.Ratio())
	}
}
