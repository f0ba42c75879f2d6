package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
		{"repeat", []float64{7, 7, 7}, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %g, want %g", c.in, got, c.want)
			}
		})
	}
}

func TestVarianceBasic(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 0},
		{"constant", []float64{2, 2, 2, 2}, 0},
		{"simple", []float64{1, 3}, 1}, // mean 2, deviations ±1
		{"spread", []float64{0, 0, 4, 4}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Variance(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Variance(%v) = %g, want %g", c.in, got, c.want)
			}
		})
	}
}

func TestNRMSEUnbiasedEstimates(t *testing.T) {
	// All estimates exactly equal to truth: NRMSE 0.
	if got := NRMSE([]float64{10, 10, 10}, 10); got != 0 {
		t.Errorf("NRMSE of exact estimates = %g, want 0", got)
	}
}

func TestNRMSECapturesBias(t *testing.T) {
	// Constant estimate 12 against truth 10: NRMSE = 2/10.
	if got := NRMSE([]float64{12, 12}, 10); !almostEqual(got, 0.2, 1e-12) {
		t.Errorf("NRMSE = %g, want 0.2", got)
	}
}

func TestNRMSECapturesVariance(t *testing.T) {
	// Estimates 8 and 12 against truth 10: RMSE = 2, NRMSE = 0.2.
	if got := NRMSE([]float64{8, 12}, 10); !almostEqual(got, 0.2, 1e-12) {
		t.Errorf("NRMSE = %g, want 0.2", got)
	}
}

func TestNRMSEUndefinedCases(t *testing.T) {
	if got := NRMSE([]float64{1}, 0); !math.IsNaN(got) {
		t.Errorf("NRMSE with zero truth = %g, want NaN", got)
	}
	if got := NRMSE(nil, 5); !math.IsNaN(got) {
		t.Errorf("NRMSE with no estimates = %g, want NaN", got)
	}
}

func TestNRMSENonNegativeProperty(t *testing.T) {
	f := func(xs []float64, truth float64) bool {
		if truth == 0 || len(xs) == 0 {
			return true
		}
		v := NRMSE(xs, truth)
		return math.IsNaN(v) || v >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelativeBias(t *testing.T) {
	if got := RelativeBias([]float64{11, 11}, 10); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("RelativeBias = %g, want 0.1", got)
	}
	if got := RelativeBias([]float64{9}, 10); !almostEqual(got, -0.1, 1e-12) {
		t.Errorf("RelativeBias = %g, want -0.1", got)
	}
	if got := RelativeBias([]float64{1}, 0); !math.IsNaN(got) {
		t.Errorf("RelativeBias with zero truth = %g, want NaN", got)
	}
}

func TestBatchMeansSEErrors(t *testing.T) {
	if _, err := BatchMeansSE([]float64{1, 2, 3, 4}, 1); err == nil {
		t.Error("want error for 1 batch")
	}
	if _, err := BatchMeansSE([]float64{1, 2, 3}, 2); err == nil {
		t.Error("want error for too few observations")
	}
}

// TestBatchMeansStreamMatchesTwoPass checks the stream against the
// two-pass arithmetic written out here: cut the terms into batches of
// n/batches, drop the tail, average each batch with Mean, then take the
// sample standard deviation of the batch means over √batches. The results
// must agree bit for bit, including around the 2·batches floor, and one
// stream is reused across every case.
func TestBatchMeansStreamMatchesTwoPass(t *testing.T) {
	twoPass := func(xs []float64, batches int) (float64, bool) {
		if len(xs) < 2*batches {
			return 0, false
		}
		size := len(xs) / batches
		means := make([]float64, batches)
		for b := range means {
			means[b] = Mean(xs[b*size : (b+1)*size])
		}
		m := Mean(means)
		var ss float64
		for _, v := range means {
			ss += (v - m) * (v - m)
		}
		return math.Sqrt(ss / float64(batches-1) / float64(batches)), true
	}
	rng := newTestRand(11)
	var s BatchMeans
	for _, batches := range []int{20, 7} {
		for _, n := range []int{39, 40, 41, 1019} {
			xs := make([]float64, n)
			state := 0.0
			for i := range xs {
				state = 0.9*state + rng.NormFloat64()
				xs[i] = 1e3 * state
			}
			s.Reset(n, batches)
			for _, x := range xs {
				s.Add(x)
			}
			got, err := s.SE()
			want, ok := twoPass(xs, batches)
			if (err == nil) != ok {
				t.Errorf("n=%d batches=%d: stream error %v, two-pass ok %v", n, batches, err, ok)
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d batches=%d: stream SE %v, two-pass %v", n, batches, got, want)
			}
			if bm, _ := BatchMeansSE(xs, batches); math.Float64bits(bm) != math.Float64bits(got) {
				t.Errorf("n=%d batches=%d: BatchMeansSE %v, stream %v", n, batches, bm, got)
			}
		}
	}
}

func TestBatchMeansSEIIDMatchesClassic(t *testing.T) {
	// For iid data, batch means should approximate sd/sqrt(n).
	rng := newTestRand(7)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	se, err := BatchMeansSE(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	classic := math.Sqrt(Variance(xs)) / math.Sqrt(float64(len(xs)))
	if se < classic/2 || se > classic*2 {
		t.Errorf("batch-means SE %g vs classic %g: off by more than 2x on iid data", se, classic)
	}
}

func TestBatchMeansSEDetectsCorrelation(t *testing.T) {
	// A strongly autocorrelated sequence (slow random walk) must yield a
	// much larger SE than the naive iid formula.
	rng := newTestRand(8)
	xs := make([]float64, 10000)
	state := 0.0
	for i := range xs {
		state = 0.99*state + rng.NormFloat64()
		xs[i] = state
	}
	se, err := BatchMeansSE(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	classic := math.Sqrt(Variance(xs)) / math.Sqrt(float64(len(xs)))
	if se < 2*classic {
		t.Errorf("batch-means SE %g did not exceed naive %g on correlated data", se, classic)
	}
}
