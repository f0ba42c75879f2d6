package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specMetric is one gated metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the repository root seen from bench/, where the tests run).
func loadSpec() (*benchSpec, error) {
	var errs []error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, errors.Join(errs...)
}

// loadResults reads untraced results (one JSON object per line, as -out
// appends them) into workload -> metric -> values.
func loadResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for n, m := range r.Metrics {
			out[r.Workload][n] = append(out[r.Workload][n], m.Value)
		}
	}
	return out, sc.Err()
}

// Verdicts of one metric on one workload.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict judges change (b) against parent (a) for one metric. worse is
// the share by which b's median is worse than a's; spread is the wider
// side's quartile distance as a share of its median. A change is worse
// when it worsens by more than the bound and the spread can resolve that
// (or every run of b is worse than every run of a); with a spread wider
// than the bound it is unresolved unless every run of b beats every run of
// a; it is better when it improves by more than the parent's own spread.
func verdict(a, b []float64, m specMetric) (v string, worse, spread float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worse = sign * (mb - ma) / math.Abs(ma)
	spreadA := (q3a - q1a) / math.Abs(ma)
	spread = math.Max(spreadA, (q3b-q1b)/math.Abs(mb))
	bestA, worstA := extremes(a, sign)
	bestB, worstB := extremes(b, sign)
	allBetter := sign*(worstB-bestA) < 0
	allWorse := sign*(bestB-worstA) > 0
	switch {
	case worse > m.Bound && (spread <= m.Bound || allWorse):
		return verdictWorse, worse, spread
	case spread > m.Bound:
		if allBetter {
			return verdictBetter, worse, spread
		}
		return verdictUnresolved, worse, spread
	case -worse > spreadA:
		return verdictBetter, worse, spread
	}
	return verdictUnchanged, worse, spread
}

// extremes returns the best and worst value of xs; sign is +1 when lower is
// better, -1 when higher is.
func extremes(xs []float64, sign float64) (best, worst float64) {
	s := sortedCopy(xs)
	if sign > 0 {
		return s[0], s[len(s)-1]
	}
	return s[len(s)-1], s[0]
}

// compareMain implements "bench compare A B": for every workload and
// end-to-end metric, the medians and quartiles of the parent's runs (A)
// and the change's runs (B), and a verdict. It exits 1 on a regression.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: usage: bench compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench: reading the spec:", err)
		return 2
	}
	a, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(stdout, "%-13s %-16s %5s %30s %30s %8s %7s %7s  %s\n",
		"workload", "metric", "runs", "parent q1/median/q3", "change q1/median/q3", "worse", "spread", "bound", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-13s %-16s  missing on one side\n", wl, m.Name)
				code = 1
				continue
			}
			v, worse, spread := verdict(va, vb, m)
			if v == verdictWorse {
				code = 1
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			fmt.Fprintf(stdout, "%-13s %-16s %2d/%-2d %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl, m.Name, len(va), len(vb), q1a, ma, q3a, q1b, mb, q3b, 100*worse, 100*spread, 100*m.Bound, v)
		}
	}
	return code
}
