package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// NRMSE computes the normalized root mean square error of the estimates
// against the ground truth, exactly as defined in Eq. (24) of the paper:
//
//	NRMSE(F̂) = sqrt(E[(F̂-F)²]) / F
//
// which captures both the variance and the bias of the estimator. truth must
// be non-zero.
func NRMSE(estimates []float64, truth float64) float64 {
	if truth == 0 || len(estimates) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, e := range estimates {
		d := e - truth
		sum += d * d
	}
	return math.Sqrt(sum/float64(len(estimates))) / math.Abs(truth)
}

// RelativeBias returns (mean(estimates) - truth) / truth, the signed relative
// bias component of the error. Useful in unbiasedness tests.
func RelativeBias(estimates []float64, truth float64) float64 {
	if truth == 0 {
		return math.NaN()
	}
	return (Mean(estimates) - truth) / truth
}

// BatchMeansSE estimates the standard error of the mean of a serially
// correlated sequence — such as per-step estimator terms along a random
// walk — by the method of batch means: the sequence is cut into `batches`
// contiguous batches, and the sample standard deviation of the batch means,
// divided by sqrt(batches), estimates the SE of the overall mean including
// autocorrelation. Walk-based estimators underestimate their error badly if
// naive iid formulas are used; batch means is the standard fix. Each batch
// holds len(xs)/batches terms, and the len(xs) mod batches tail is dropped.
func BatchMeansSE(xs []float64, batches int) (float64, error) {
	var s BatchMeans
	s.Reset(len(xs), batches)
	for _, x := range xs {
		s.Add(x)
	}
	return s.SE()
}

// BatchMeans is BatchMeansSE as a stream: Reset announces n terms, Add
// takes them in order, and SE reads the result. It keeps one running sum
// per batch, not the terms, and sums each batch from zero in order as Mean
// does, so SE is bit-identical to BatchMeansSE over the same terms.
type BatchMeans struct {
	sums []float64 // running sum of each batch
	n    int       // terms announced by Reset
	size int       // terms per batch, n / len(sums)
	b    int       // the batch the next term falls in
	left int       // terms batch b still takes
}

// Reset readies s for n terms cut into batches contiguous batches, reusing
// its storage.
func (s *BatchMeans) Reset(n, batches int) {
	batches = max(batches, 0)
	if cap(s.sums) < batches {
		s.sums = make([]float64, batches)
	}
	s.sums = s.sums[:batches]
	clear(s.sums)
	s.n, s.size, s.b = n, n/max(batches, 1), 0
	s.left = s.size
}

// Add takes the next term. Terms past the last full batch are dropped.
func (s *BatchMeans) Add(x float64) {
	if s.b == len(s.sums) {
		return
	}
	s.sums[s.b] += x
	s.left--
	if s.left == 0 {
		s.b++
		s.left = s.size
	}
}

// SE returns the batch-means standard error of the n terms Reset announced,
// once Add has taken them.
func (s *BatchMeans) SE() (float64, error) {
	batches := len(s.sums)
	if batches < 2 {
		return 0, fmt.Errorf("stats: batch means needs >= 2 batches, got %d", batches)
	}
	if s.n < 2*batches {
		return 0, fmt.Errorf("stats: need at least %d observations for %d batches, got %d",
			2*batches, batches, s.n)
	}
	// Sample (n-1) variance of the batch means.
	size := float64(s.size)
	var m float64
	for _, sum := range s.sums {
		m += sum / size
	}
	m /= float64(batches)
	var sum float64
	for _, v := range s.sums {
		d := v/size - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(batches-1) / float64(batches)), nil
}
