package estimate

import (
	"math"
)

// CI is a variance-based confidence interval over the per-walker estimates
// of a multi-walker run. W independent walkers yield W (nearly) independent
// estimates of F; their spread gives an error bar that needs no ground
// truth — the practical payoff of running an estimate with W > 1 beyond
// wall-clock speedup. The zero value means "no interval" (serial runs, or
// too few walkers to measure spread).
type CI struct {
	// Low is the interval's lower bound. A CIFromEstimates interval is
	// centred on the MEAN of the per-walker estimates. The pooled estimate
	// reported alongside (which merges all walkers' samples into one
	// estimator, deduplicating across walkers for HT) targets the same
	// quantity but is not the same statistic, so it can fall slightly
	// outside the interval when per-walker sample sizes are skewed. A
	// JackknifeCI interval is centred on the pooled estimate itself.
	Low float64 `json:"low"`
	// High is the interval's upper bound.
	High float64 `json:"high"`
	// StdErr is the standard error the interval is built from.
	StdErr float64 `json:"-"`
	// Level is the nominal coverage (Level, 0.95).
	Level float64 `json:"-"`
	// Walkers is how many per-walker (or leave-one-out) estimates the
	// interval is built from.
	Walkers int `json:"-"`
}

// Valid reports whether the interval carries information (at least two
// walkers contributed finite estimates).
func (c CI) Valid() bool { return c.Walkers >= 2 && c.Level > 0 }

// IsZero reports whether the interval carries no information, so an
// `omitzero` JSON tag drops exactly the intervals that are not Valid.
func (c CI) IsZero() bool { return !c.Valid() }

// Level is the nominal coverage of every interval this package builds.
const Level = 0.95

// z is the two-sided normal quantile of Level.
var z = math.Sqrt2 * math.Erfinv(Level)

// around builds the interval center ± z·se over walkers estimates.
func around(center, se float64, walkers int) CI {
	return CI{
		Low:     center - z*se,
		High:    center + z*se,
		StdErr:  se,
		Level:   Level,
		Walkers: walkers,
	}
}

// CIFromEstimates builds a level-Level interval from per-walker estimates
// using the normal approximation: mean ± z·sd/√W. Non-finite estimates (a
// walker that drew no samples) are dropped. With fewer than two finite
// estimates the zero CI is returned.
func CIFromEstimates(perWalker []float64) CI {
	vals := make([]float64, 0, len(perWalker))
	for _, v := range perWalker {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v)
		}
	}
	if len(vals) < 2 {
		return CI{Walkers: len(vals)}
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(vals)-1))
	return around(mean, sd/math.Sqrt(float64(len(vals))), len(vals))
}

// JackknifeCI builds a level-Level interval around a pooled estimate from
// its W leave-one-walker-out estimates: SE² = (W−1)/W · Σ(θ₍₋ᵢ₎ − θ̄₍₋·₎)².
// Ratio and collision statistics use it because per-walker subsample
// estimates of them are badly biased at small per-walker counts, while each
// leave-one-out estimate keeps nearly the full sample. With fewer than two
// leave-one-out estimates the zero CI is returned.
func JackknifeCI(pooled float64, leaveOneOut []float64) CI {
	W := len(leaveOneOut)
	if W < 2 {
		return CI{Walkers: W}
	}
	mean := 0.0
	for _, v := range leaveOneOut {
		mean += v
	}
	mean /= float64(W)
	ss := 0.0
	for _, v := range leaveOneOut {
		d := v - mean
		ss += d * d
	}
	return around(pooled, math.Sqrt(float64(W-1)/float64(W)*ss), W)
}
