// Command reproduce regenerates the tables and figures of the paper's
// evaluation (Section 5) over the synthetic stand-ins.
//
// Usage:
//
//	reproduce -table 4              # one table (1, 3, 4..26)
//	reproduce -figure 1             # one figure (1, 2)
//	reproduce -mixing               # the Section 5.1 mixing-time numbers
//	reproduce -ablations            # the four design-choice ablation studies
//	reproduce -all                  # everything, in paper order
//	reproduce -all -reps 200 -scale 1.0   # paper-strength settings (slow)
//
// By default it runs at reduced repetitions for a quick end-to-end pass; the
// paper uses 200 repetitions per cell.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiment"
)

func main() {
	var (
		table   = flag.Int("table", 0, "paper table number to regenerate (1-26)")
		figure  = flag.Int("figure", 0, "paper figure number to regenerate (1-2)")
		mixing  = flag.Bool("mixing", false, "print the mixing-time measurements")
		ablate  = flag.Bool("ablations", false, "run the design-choice ablations: single walk, HT thinning, exploration billing, walk kind")
		all     = flag.Bool("all", false, "regenerate every table and figure")
		reps    = flag.Int("reps", 50, "independent simulations per NRMSE cell (paper: 200)")
		scale   = flag.Float64("scale", 0.5, "stand-in scale factor (1.0 = default sizes)")
		seed    = flag.Int64("seed", 2018, "root random seed")
		workers = flag.Int("workers", 0, "parallel workers across repetitions (0 = GOMAXPROCS)")
		walkers = flag.Int("walkers", 0, "concurrent walkers inside each estimate (0/1 = serial)")
		burnin  = flag.Int("burnin", 0, "fixed burn-in steps (0 = measure mixing time per graph)")
		csvdir  = flag.String("csvdir", "", "also write sweep/figure data as CSV files into this directory")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "reproduce: "+format+"\n", args...)
		os.Exit(2)
	}
	if *reps < 1 {
		fail("-reps must be at least 1, got %d", *reps)
	}
	if *scale <= 0 {
		fail("-scale must be positive, got %g", *scale)
	}
	if *workers < 0 {
		fail("-workers must be non-negative (0 = GOMAXPROCS), got %d", *workers)
	}
	if *walkers < 0 {
		fail("-walkers must be non-negative (0/1 = serial), got %d", *walkers)
	}
	if *burnin < 0 {
		fail("-burnin must be non-negative (0 = measure mixing time), got %d", *burnin)
	}
	if *table < 0 || *table > 26 {
		fail("-table must be in 1..26, got %d", *table)
	}
	if *figure < 0 || *figure > 2 {
		fail("-figure must be 1 or 2, got %d", *figure)
	}

	if *csvdir != "" {
		if err := os.MkdirAll(*csvdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
	}

	suite := experiment.NewSuite(*scale, *seed, *reps)
	suite.Workers = *workers
	suite.Walkers = *walkers
	suite.BurnIn = *burnin

	emit := func(what string, f func() (string, error)) {
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", what, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s took %s]\n\n", what, time.Since(start).Round(time.Millisecond))
	}

	writeCSV := func(name string, write func(w *os.File) error) {
		if *csvdir == "" {
			return
		}
		path := filepath.Join(*csvdir, name)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := write(f); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		fmt.Printf("[wrote %s]\n", path)
	}

	emitTable := func(id int) {
		emit(fmt.Sprintf("table %d", id), func() (string, error) { return suite.Table(id) })
		if id >= 4 && id <= 17 {
			writeCSV(fmt.Sprintf("table%02d.csv", id), func(w *os.File) error {
				sw, err := suite.SweepForTable(id)
				if err != nil {
					return err
				}
				return experiment.WriteSweepCSV(w, sw)
			})
		}
	}
	emitFigure := func(id int) {
		emit(fmt.Sprintf("figure %d", id), func() (string, error) { return suite.Figure(id) })
		writeCSV(fmt.Sprintf("figure%d.csv", id), func(w *os.File) error {
			pts, err := suite.FigurePoints(id)
			if err != nil {
				return err
			}
			return experiment.WriteFrequencyCSV(w, pts, experiment.ProposedAlgorithms())
		})
	}

	ran := false
	if *mixing || *all {
		ran = true
		emit("mixing", suite.MixingTable)
	}
	if *ablate || *all {
		ran = true
		emit("ablations", suite.AblationReport)
	}
	if *table > 0 {
		ran = true
		emitTable(*table)
	}
	if *figure > 0 {
		ran = true
		emitFigure(*figure)
	}
	if *all {
		ids := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26}
		for _, id := range ids {
			emitTable(id)
		}
		for _, id := range []int{1, 2} {
			emitFigure(id)
		}
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "reproduce: nothing to do; pass -table N, -figure N, -mixing or -all")
		flag.Usage()
		os.Exit(2)
	}
}
