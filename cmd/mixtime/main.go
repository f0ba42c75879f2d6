// Command mixtime computes the simple-random-walk mixing time of a graph by
// total-variation distance (paper Section 5.1, Eq. 23).
//
// Usage:
//
//	mixtime -dataset facebook -eps 1e-3
//	mixtime -edges graph.txt -eps 1e-3 -exact
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/walk"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "synthetic stand-in to generate")
		scale    = flag.Float64("scale", 1.0, "stand-in scale factor")
		edges    = flag.String("edges", "", "edge list file (alternative to -dataset)")
		eps      = flag.Float64("eps", 1e-3, "total-variation threshold")
		seed     = flag.Int64("seed", 1, "random seed for generation")
		starts   = flag.Int("starts", 4, "number of sampled start nodes")
		exactMax = flag.Bool("exact", false, "maximize over every start node (slow: O(|V|·|E|·T))")
		maxSteps = flag.Int("maxsteps", 20000, "abort threshold")
		spectral = flag.Bool("spectral", false, "also compute the lazy-walk spectral gap and its mixing-time upper bound")
		workers  = flag.Int("workers", 0, "parallel workers for multi-start computation")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mixtime: "+format+"\n", args...)
		os.Exit(2)
	}
	if *dataset == "" && *edges == "" {
		fmt.Fprintln(os.Stderr, "mixtime: need -dataset or -edges")
		flag.Usage()
		os.Exit(2)
	}
	if *eps <= 0 || *eps >= 1 {
		fail("-eps must be a total-variation threshold in (0, 1), got %g", *eps)
	}
	if *scale <= 0 {
		fail("-scale must be positive, got %g", *scale)
	}
	if *starts < 1 {
		fail("-starts must be at least 1, got %d", *starts)
	}
	if *maxSteps < 1 {
		fail("-maxsteps must be at least 1, got %d", *maxSteps)
	}
	if *workers < 0 {
		fail("-workers must be non-negative (0 = one per core), got %d", *workers)
	}
	var (
		g   *repro.Graph
		err error
	)
	if *dataset != "" {
		g, err = repro.GenerateStandIn(*dataset, *scale, *seed)
	} else {
		g, err = repro.LoadGraph(*edges, "")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixtime:", err)
		os.Exit(1)
	}
	fmt.Printf("graph: |V|=%d |E|=%d\n", g.NumNodes(), g.NumEdges())

	opts := walk.MixingOptions{MaxSteps: *maxSteps, Workers: *workers}
	if !*exactMax {
		opts.StartNodes = walk.DefaultMixingStarts(g, *starts)
		fmt.Printf("maximizing over %d sampled starts (pass -exact for all %d)\n",
			len(opts.StartNodes), g.NumNodes())
	}
	res, err := walk.MixingTime(context.Background(), g, *eps, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixtime:", err)
		os.Exit(1)
	}
	if !res.Converged {
		fmt.Printf("did NOT mix within %d steps (TV = %.3g); the graph may be bipartite\n",
			res.Steps, res.FinalTV)
		os.Exit(1)
	}
	fmt.Printf("mixing time T(%g) = %d steps (final TV = %.3g)\n", *eps, res.Steps, res.FinalTV)

	if *spectral {
		spec, err := walk.SpectralGap(g, *eps, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixtime:", err)
			os.Exit(1)
		}
		fmt.Printf("lazy-walk spectral gap = %.6f (lambda2 = %.6f, %d iterations)\n",
			spec.Gap, spec.Lambda2, spec.Iterations)
		fmt.Printf("spectral mixing-time upper bound: %.0f lazy steps\n", spec.MixingUpper)
	}
}
