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
// naive iid formulas are used; batch means is the standard fix.
func BatchMeansSE(xs []float64, batches int) (float64, error) {
	if batches < 2 {
		return 0, fmt.Errorf("stats: batch means needs >= 2 batches, got %d", batches)
	}
	if len(xs) < 2*batches {
		return 0, fmt.Errorf("stats: need at least %d observations for %d batches, got %d",
			2*batches, batches, len(xs))
	}
	size := len(xs) / batches
	means := make([]float64, batches)
	for b := 0; b < batches; b++ {
		means[b] = Mean(xs[b*size : (b+1)*size])
	}
	// Sample (n-1) variance of the batch means.
	m := Mean(means)
	var sum float64
	for _, v := range means {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(batches-1) / float64(batches)), nil
}
