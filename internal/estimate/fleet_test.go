package estimate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// feed runs one FleetHH over the given walkers' terms in walker order.
func feed(walkers [][]float64) *FleetHH {
	f := NewFleetHH(len(walkers))
	for _, terms := range walkers {
		f.BeginWalker(len(terms))
		for _, x := range terms {
			f.Add(x)
		}
		f.EndWalker()
	}
	return &f
}

// TestFleetHHLoneWalker: one walker's answer is the plain Hansen–Hurwitz
// mean with the zero CI, and its standard error is stats.BatchMeansSE over
// its terms in 20 batches, bit for bit, or zero below 40 terms.
func TestFleetHHLoneWalker(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{39, 40, 41, 1019} {
		terms := make([]float64, n)
		var hh HansenHurwitz
		for i := range terms {
			terms[i] = float64(rng.Intn(3)) * 1234.5
			hh.AddUnit(terms[i])
		}
		est, ci, se := feed([][]float64{terms}).Result()
		want, err := stats.BatchMeansSE(terms, 20)
		if err != nil {
			want = 0
		}
		if math.Float64bits(est) != math.Float64bits(hh.Estimate()) || ci != (CI{}) ||
			math.Float64bits(se) != math.Float64bits(want) {
			t.Errorf("n=%d: got (%v, %+v, %v), want (%v, CI{}, %v)", n, est, ci, se, hh.Estimate(), want)
		}
	}
}

// TestFleetHHFleet: a fleet pools every term in walker order, and its
// interval and standard error come from the walkers that drew samples.
func TestFleetHHFleet(t *testing.T) {
	walkers := [][]float64{{1, 2, 3}, {}, {10, 20}}
	est, ci, se := feed(walkers).Result()
	var hh HansenHurwitz
	for _, terms := range walkers {
		for _, x := range terms {
			hh.AddUnit(x)
		}
	}
	want := CIFromEstimates([]float64{2, 15})
	if est != hh.Estimate() || ci != want || se != want.StdErr {
		t.Errorf("got (%v, %+v, %v), want (%v, %+v, %v)", est, ci, se, hh.Estimate(), want, want.StdErr)
	}
}

// TestWalkerSeriesInterval pins the interval rule: a lone walker gets the
// zero CI, not the one-estimate CI{Walkers: 1} of CIFromEstimates, and a
// fleet of two whose second walker drew nothing gets exactly that.
func TestWalkerSeriesInterval(t *testing.T) {
	lone := NewWalkerSeries(1)
	lone.Add(5, 7)
	if ci := lone.CI(); ci != (CI{}) {
		t.Errorf("lone walker: %+v, want the zero CI", ci)
	}
	fleet := NewWalkerSeries(2)
	fleet.Add(5, 7)
	fleet.Add(0, math.NaN())
	if ci, want := fleet.CI(), CIFromEstimates([]float64{7}); ci != want || ci.Walkers != 1 {
		t.Errorf("fleet with one empty walker: %+v, want %+v", ci, want)
	}
}
