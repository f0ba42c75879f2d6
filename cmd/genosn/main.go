// Command genosn generates a synthetic online social network stand-in and
// writes it as a SNAP-style edge list plus a label file, and/or as a .osnb
// binary snapshot that the other tools load in O(file size) via their
// -graph flag.
//
// Usage:
//
//	genosn -dataset pokec -scale 1.0 -seed 42 -out pokec
//	  -> pokec.edges  pokec.labels
//	genosn -dataset pokec -scale 50 -seed 42 -graph pokec.osnb -text=false
//	  -> pokec.osnb (1M-node binary snapshot, no text files)
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph/snapshot"
	"repro/internal/textio"
)

func main() {
	var (
		dataset   = flag.String("dataset", "pokec", "stand-in to generate (facebook, googleplus, pokec, orkut, livejournal)")
		scale     = flag.Float64("scale", 1.0, "scale factor")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("out", "", "output file prefix (default: dataset name)")
		graphOut  = flag.String("graph", "", "also write a .osnb binary snapshot to this path")
		text      = flag.Bool("text", true, "write the .edges/.labels text files")
		census    = flag.Int("census", 10, "print the N rarest and N most frequent label pairs (0 = skip)")
		churn     = flag.Float64("churn", 0, "additionally write a .osnd delta segment churning this fraction of edges (requires -graph; 0 = off)")
		churnSeed = flag.Int64("churn-seed", 1, "random seed for -churn edge selection")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "genosn: "+format+"\n", args...)
		os.Exit(2)
	}
	if *dataset == "" {
		fail("-dataset must name a stand-in (facebook, googleplus, pokec, orkut, livejournal)")
	}
	if *scale <= 0 {
		fail("-scale must be positive, got %g", *scale)
	}
	if *census < 0 {
		fail("-census must be non-negative (0 = skip), got %d", *census)
	}
	if !*text && *graphOut == "" {
		fail("nothing to write: -text=false needs -graph")
	}
	if *churn < 0 || *churn >= 1 {
		fail("-churn must be in [0, 1), got %g", *churn)
	}
	if *churn > 0 && *graphOut == "" {
		fail("-churn writes a .osnd segment beside the snapshot and needs -graph")
	}

	prefix := *out
	if prefix == "" {
		prefix = *dataset
	}
	g, err := repro.GenerateStandIn(*dataset, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genosn:", err)
		os.Exit(1)
	}
	fmt.Printf("generated %s: |V|=%d |E|=%d max_deg=%d\n",
		*dataset, g.NumNodes(), g.NumEdges(), exact.MaxDegree(g))

	if *text {
		ef, err := os.Create(prefix + ".edges")
		if err != nil {
			fmt.Fprintln(os.Stderr, "genosn:", err)
			os.Exit(1)
		}
		defer ef.Close()
		if err := textio.WriteEdgeList(ef, g); err != nil {
			fmt.Fprintln(os.Stderr, "genosn:", err)
			os.Exit(1)
		}
		lf, err := os.Create(prefix + ".labels")
		if err != nil {
			fmt.Fprintln(os.Stderr, "genosn:", err)
			os.Exit(1)
		}
		defer lf.Close()
		if err := textio.WriteLabels(lf, g); err != nil {
			fmt.Fprintln(os.Stderr, "genosn:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s.edges and %s.labels\n", prefix, prefix)
	}

	if *graphOut != "" {
		start := time.Now()
		if err := repro.SaveSnapshot(*graphOut, g); err != nil {
			fmt.Fprintln(os.Stderr, "genosn:", err)
			os.Exit(1)
		}
		st, err := os.Stat(*graphOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "genosn:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes in %.2fs)\n", *graphOut, st.Size(), time.Since(start).Seconds())

		if *churn > 0 {
			d, err := gen.Churn(g, *churn, rand.New(rand.NewSource(*churnSeed)))
			if err != nil {
				fmt.Fprintln(os.Stderr, "genosn:", err)
				os.Exit(1)
			}
			ng, err := g.ApplyDelta(d)
			if err != nil {
				fmt.Fprintln(os.Stderr, "genosn:", err)
				os.Exit(1)
			}
			segPath, err := snapshot.SaveDelta(*graphOut, g, ng, d)
			if err != nil {
				fmt.Fprintln(os.Stderr, "genosn:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (+%d/-%d edges, version %d -> %d; snapshot loaders apply it automatically)\n",
				segPath, len(d.Adds), len(d.Dels), g.Version(), ng.Version())
		}
	}

	if *census > 0 {
		rows := exact.LabelPairCensus(g)
		n := *census
		if 2*n > len(rows) {
			n = len(rows) / 2
		}
		fmt.Printf("\nlabel-pair census (%d pairs total):\n", len(rows))
		fmt.Println("rarest:")
		for _, pc := range rows[:n] {
			fmt.Printf("  %v  F=%d  (%.4g%% of |E|)\n", pc.Pair, pc.Count, 100*float64(pc.Count)/float64(g.NumEdges()))
		}
		fmt.Println("most frequent:")
		for _, pc := range rows[len(rows)-n:] {
			fmt.Printf("  %v  F=%d  (%.4g%% of |E|)\n", pc.Pair, pc.Count, 100*float64(pc.Count)/float64(g.NumEdges()))
		}
	}
}
