package estimate

import "repro/internal/stats"

// seBatches is the batch count of a lone walker's batch-means standard
// error.
const seBatches = 20

// WalkerSeries collects the per-walker sub-estimates of a run made by a
// fleet of one or more walkers, and holds the one rule for when they give a
// between-walker interval: two or more walkers.
type WalkerSeries struct {
	walkers int
	est     []float64
}

// NewWalkerSeries sizes a series for a fleet of walkers walkers.
func NewWalkerSeries(walkers int) WalkerSeries {
	return WalkerSeries{est: make([]float64, 0, walkers)}
}

// Add records one walker's sub-estimate over its n samples. A walker that
// drew none counts toward the fleet but gives no estimate.
func (s *WalkerSeries) Add(n int, est float64) {
	s.walkers++
	if n > 0 {
		s.est = append(s.est, est)
	}
}

// CI returns the between-walker interval (CIFromEstimates) of two or more
// walkers, and the zero CI for a lone walker.
func (s *WalkerSeries) CI() CI {
	ci, _ := s.interval()
	return ci
}

// interval is CI, with ok false for a lone walker.
func (s *WalkerSeries) interval() (ci CI, ok bool) {
	if s.walkers < 2 {
		return CI{}, false
	}
	return CIFromEstimates(s.est), true
}

// FleetHH is the Hansen–Hurwitz estimator of a walk run as a fleet of one
// or more walkers, fed one walker at a time with unit-probability terms
// (y/p, already divided). It pools every walker's terms, keeps each
// walker's own estimate for the between-walker interval, and streams the
// walker's terms through batch means, which give a lone walker its
// standard error. Walkers pool in the order they are fed, so a replay feeds
// them in walker order.
type FleetHH struct {
	pooled, walker HansenHurwitz
	series         WalkerSeries
	batch          stats.BatchMeans
}

// NewFleetHH sizes the estimator for a fleet of walkers walkers.
func NewFleetHH(walkers int) FleetHH {
	return FleetHH{series: NewWalkerSeries(walkers)}
}

// BeginWalker opens the next walker's stream of n terms.
func (f *FleetHH) BeginWalker(n int) {
	f.walker = HansenHurwitz{}
	f.batch.Reset(n, seBatches)
}

// Add feeds one term to the pooled and the current walker's estimator.
func (f *FleetHH) Add(term float64) {
	f.pooled.AddUnit(term)
	f.walker.AddUnit(term)
	f.batch.Add(term)
}

// EndWalker closes the current walker.
func (f *FleetHH) EndWalker() {
	f.series.Add(f.walker.N(), f.walker.Estimate())
}

// Result returns the pooled estimate, the between-walker interval, and the
// estimate's standard error: the interval's for two or more walkers, else
// the lone walker's batch-means one, which is zero below 2·seBatches
// terms.
func (f *FleetHH) Result() (est float64, ci CI, stdErr float64) {
	est = f.pooled.Estimate()
	ci, ok := f.series.interval()
	if ok {
		return est, ci, ci.StdErr
	}
	if se, err := f.batch.SE(); err == nil {
		stdErr = se
	}
	return est, ci, stdErr
}
