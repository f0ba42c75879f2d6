package stats

import (
	"fmt"
	"math"
	"sort"
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

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

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

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks. xs does not have to be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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

// ChebyshevSampleBound returns the generic Chebyshev sample-size bound
// ceil(variance / (eps² · mean² · delta)) used throughout Section 4 of the
// paper: with k at least this large, the sample mean of k iid draws is an
// (eps, delta)-approximation of the true mean (Appendix A).
func ChebyshevSampleBound(variance, mean, eps, delta float64) (int64, error) {
	if eps <= 0 || eps > 1 {
		return 0, fmt.Errorf("stats: eps must be in (0,1], got %g", eps)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("stats: delta must be in (0,1), got %g", delta)
	}
	if mean == 0 {
		return 0, fmt.Errorf("stats: Chebyshev bound undefined for zero mean")
	}
	if variance < 0 {
		return 0, fmt.Errorf("stats: negative variance %g", variance)
	}
	k := variance / (eps * eps * mean * mean * delta)
	if k < 1 {
		k = 1
	}
	return int64(math.Ceil(k)), nil
}
