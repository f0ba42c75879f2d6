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
	// Low and High bound the interval around the MEAN of the per-walker
	// estimates. The pooled estimate reported alongside (which merges all
	// walkers' samples into one estimator, deduplicating across walkers
	// for HT) targets the same quantity but is not the same statistic, so
	// it can fall slightly outside the interval when per-walker sample
	// sizes are skewed.
	Low  float64 `json:"low"`
	High float64 `json:"high"`
	// StdErr is the standard error of the mean of the per-walker estimates.
	StdErr float64 `json:"-"`
	// Level is the nominal coverage (e.g. 0.95).
	Level float64 `json:"-"`
	// Walkers is how many per-walker estimates the interval is built from.
	Walkers int `json:"-"`
}

// Valid reports whether the interval carries information (at least two
// walkers contributed finite estimates).
func (c CI) Valid() bool { return c.Walkers >= 2 && c.Level > 0 }

// IsZero reports whether the interval carries no information, so an
// `omitzero` JSON tag drops exactly the intervals that are not Valid.
func (c CI) IsZero() bool { return !c.Valid() }

// CIFromEstimates builds a level-confidence interval from per-walker
// estimates using the normal approximation: mean ± z·sd/√W. Non-finite
// estimates (a walker that drew no samples) are dropped. With fewer than
// two finite estimates the zero CI is returned.
func CIFromEstimates(perWalker []float64, level float64) CI {
	vals := make([]float64, 0, len(perWalker))
	for _, v := range perWalker {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v)
		}
	}
	if len(vals) < 2 || level <= 0 || level >= 1 {
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
	se := sd / math.Sqrt(float64(len(vals)))
	z := math.Sqrt2 * math.Erfinv(level)
	return CI{
		Low:     mean - z*se,
		High:    mean + z*se,
		StdErr:  se,
		Level:   level,
		Walkers: len(vals),
	}
}
