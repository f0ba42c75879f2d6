package experiment

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// RenderSweepTable renders a SweepResult in the layout of the paper's
// Tables 4–17: one row per algorithm, one column per sample size, the best
// value in each column marked with '*'. Title should carry the dataset,
// label pair, F and F/|E| like the paper's captions.
func RenderSweepTable(r *SweepResult, title string) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)

	header := make([]string, 0, len(r.Fraction)+1)
	header = append(header, "algorithm")
	for _, f := range r.Fraction {
		header = append(header, fmt.Sprintf("%.1f%%|V|", f*100))
	}

	rows := [][]string{header}
	// Column-best markers.
	best := make([]float64, len(r.Fraction))
	for fi := range r.Fraction {
		_, best[fi] = r.Best(fi)
	}
	for _, a := range AllAlgorithms() {
		vals, ok := r.NRMSE[a]
		if !ok {
			continue
		}
		row := make([]string, 0, len(vals)+1)
		row = append(row, string(a))
		for fi, v := range vals {
			cell := fmt.Sprintf("%.3f", v)
			if v == best[fi] {
				cell += "*"
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	writeAligned(&b, rows)
	return b.String()
}

// writeAligned renders rows with space-aligned columns.
func writeAligned(b *strings.Builder, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i == 0 {
				fmt.Fprintf(b, "%-*s", widths[i], cell)
			} else {
				fmt.Fprintf(b, "  %*s", widths[i], cell)
			}
		}
		fmt.Fprintln(b)
	}
}

// BoundsRow is one line of the Tables 18–22 reproduction: the Theorem
// 4.1–4.5 sample-size bounds for one label pair.
type BoundsRow struct {
	Pair   graph.LabelPair
	Bounds core.Bounds
}

// RenderBoundsTable renders Theorem 4.1–4.5 bounds in the layout of
// Tables 18–22.
func RenderBoundsTable(rows []BoundsRow, title string) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	out := [][]string{append([]string{"pair"}, core.MethodNames()...)}
	for _, r := range rows {
		out = append(out, []string{
			r.Pair.String(),
			fmtBound(r.Bounds.NeighborSampleHH),
			fmtBound(r.Bounds.NeighborSampleHT),
			fmtBound(r.Bounds.NeighborExplorationHH),
			fmtBound(r.Bounds.NeighborExplorationHT),
			fmtBound(r.Bounds.NeighborExplorationRW),
		})
	}
	writeAligned(&b, out)
	return b.String()
}

func fmtBound(v float64) string {
	if v >= 1e5 {
		return fmt.Sprintf("%.2e", v)
	}
	return fmt.Sprintf("%.0f", v)
}

// BestRow is one line of the Tables 23–26 reproduction.
type BestRow struct {
	Dataset string
	Pair    graph.LabelPair
	Alg     Algorithm
	NRMSE   float64
}

// RenderBestTable renders best-algorithm summaries in the layout of
// Tables 23–26.
func RenderBestTable(rows []BestRow, title string) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	out := [][]string{{"dataset", "label", "best algorithm", "NRMSE"}}
	for _, r := range rows {
		out = append(out, []string{r.Dataset, r.Pair.String(), string(r.Alg), fmt.Sprintf("%.3f", r.NRMSE)})
	}
	writeAligned(&b, out)
	return b.String()
}

// DatasetStatsRow is one line of the Table 1 reproduction: the stand-in
// statistics next to the paper's original dataset sizes.
type DatasetStatsRow struct {
	Name        string
	Nodes       int
	Edges       int64
	MaxDegree   int
	MeanDegree  float64
	PaperNodes  float64
	PaperEdges  float64
	LabelScheme string
}

// RenderDatasetStats renders the Table 1 reproduction.
func RenderDatasetStats(rows []DatasetStatsRow, title string) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	out := [][]string{{"network", "|V|", "|E|", "max deg", "mean deg", "paper |V|", "paper |E|", "labels"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Edges),
			fmt.Sprintf("%d", r.MaxDegree),
			fmt.Sprintf("%.1f", r.MeanDegree),
			fmt.Sprintf("%.2e", r.PaperNodes),
			fmt.Sprintf("%.2e", r.PaperEdges),
			r.LabelScheme,
		})
	}
	writeAligned(&b, out)
	return b.String()
}

// RenderFrequencyFigure renders a figure-1/2 style series as text: one line
// per (relative frequency, NRMSE per algorithm) point, sorted by frequency.
func RenderFrequencyFigure(points []FrequencyPoint, algs []Algorithm, title string) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	sorted := append([]FrequencyPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RelativeCount < sorted[j].RelativeCount })
	header := []string{"pair", "F", "F/|E|"}
	for _, a := range algs {
		header = append(header, string(a))
	}
	out := [][]string{header}
	for _, p := range sorted {
		row := []string{p.Pair.String(), fmt.Sprintf("%d", p.Count), fmt.Sprintf("%.2e", p.RelativeCount)}
		for _, a := range algs {
			row = append(row, fmt.Sprintf("%.3f", p.NRMSE[a]))
		}
		out = append(out, row)
	}
	writeAligned(&b, out)
	return b.String()
}
