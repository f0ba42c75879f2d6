package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

// spec reads the repository's BENCHMARK.json.
func spec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload briefly on a quarter-size graph, untraced
// and traced, and checks that each run passes its output checks and emits
// every metric BENCHMARK.json lists, with its unit and a finite value. The
// window is long enough for one churn PATCH.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	s := spec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				o := options{seed: 1, seconds: 2.5, trace: trace, scale: 0.25, clients: min(2, runtime.NumCPU()), workdir: t.TempDir()}
				res, err := runWorkload(o, w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("output checks failed: %v", res.Violations)
				}
				var out bytes.Buffer
				if err := report(o, res, &out); err != nil {
					t.Fatal(err)
				}
				var sum summary
				if err := json.Unmarshal(lastLine(out.Bytes()), &sum); err != nil {
					t.Fatalf("last line is not the summary: %v", err)
				}
				want := s.EndToEnd
				if trace {
					want = s.PerLayer
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("summary has %d metrics, BENCHMARK.json lists %d", len(sum.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := sum.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
				if trace {
					if _, err := os.Stat(res.SpansFile); err != nil {
						t.Errorf("spans file: %v", err)
					}
				}
			})
		}
	}
}

// TestSpecMatchesCode pins BENCHMARK.json to the metrics and workloads the
// code defines, and the bounds to the range the harness accepts.
func TestSpecMatchesCode(t *testing.T) {
	s := spec(t)
	for _, c := range []struct {
		name string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", c.name, len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			m := c.spec[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", c.name, i, m.Name, m.Unit, d.name, d.unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var wl struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &wl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range wl.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
}

func TestPercentileAndTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if got := percentile(seq(1000), 500); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(seq(3), 990); got != 3 {
		t.Errorf("p99 of 1..3 = %v, want 3", got)
	}
	for _, c := range []struct {
		n, level int
		want     tail
	}{
		{10000, 999, tail{PerMille: 999, Value: 9990, Beyond: 10}},
		{9999, 999, tail{PerMille: 999, Value: 9990, Beyond: 9}}, // fewer than 10 beyond: the level holds, the count shows it
		{1000, 990, tail{PerMille: 990, Value: 990, Beyond: 10}},
		{200, 950, tail{PerMille: 950, Value: 190, Beyond: 10}},
		{60, 800, tail{PerMille: 800, Value: 48, Beyond: 12}},
	} {
		if got := tailAt(seq(c.n), c.level); got != c.want {
			t.Errorf("tailAt(1..%d, %d) = %+v, want %+v", c.n, c.level, got, c.want)
		}
	}
	if got := tailAt(nil, 990); !math.IsNaN(got.Value) || got.Beyond != 0 {
		t.Errorf("tailAt of no samples = %+v, want NaN with none beyond", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the spread definition the benchmark's acceptance uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5.5, 1.25, 9, 2, 7.75}, [3]float64{1.625, 5.5, 8.375}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestInputsDeterministic checks that one seed always generates the same
// keys, key order, churn deltas and graph, and another seed different ones.
func TestInputsDeterministic(t *testing.T) {
	o := options{seed: 7, seconds: 2, scale: 0.1, clients: 1}
	w := workloadByName("churn-topup")
	draw := func(o options) (*inputs, [][]byte) {
		in, err := prepare(w, o)
		if err != nil {
			t.Fatal(err)
		}
		lg := newLoadgen(workloadByName("hot-replay"), in, "", 1, nil) // Zipf key picks
		var order [][]byte
		for i := 0; i < 20; i++ {
			order = append(order, lg.readers[0]())
		}
		return in, order
	}
	a, orderA := draw(o)
	b, orderB := draw(o)
	if !reflect.DeepEqual(a.keySeeds, b.keySeeds) || !reflect.DeepEqual(a.deltas, b.deltas) ||
		!reflect.DeepEqual(a.pairs, b.pairs) || !reflect.DeepEqual(orderA, orderB) ||
		a.g.Fingerprint() != b.g.Fingerprint() {
		t.Error("the same seed generated different inputs")
	}
	if len(a.deltas) != writesPerWindow(o.seconds) {
		t.Errorf("%d deltas for a %gs window, want %d", len(a.deltas), o.seconds, writesPerWindow(o.seconds))
	}
	o.seed = 8
	c, orderC := draw(o)
	if reflect.DeepEqual(a.keySeeds, c.keySeeds) || reflect.DeepEqual(a.deltas, c.deltas) || reflect.DeepEqual(orderA, orderC) {
		t.Error("different seeds generated the same inputs")
	}

	s := newSeedStream(1, "fresh")
	seen := make(map[int64]bool)
	for i := 0; i < 10000; i++ {
		v := s.next()
		if v == 0 || seen[v] {
			t.Fatalf("draw %d repeated or zero: %d", i, v)
		}
		seen[v] = true
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "throughput_qps", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 100, 101, 99}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"same", steady, steady, lower, verdictUnchanged},
		{"within bound", steady, scale(steady, 1.05), lower, verdictUnchanged},
		{"slower beyond bound", steady, scale(steady, 1.2), lower, verdictWorse},
		{"faster", steady, scale(steady, 0.8), lower, verdictBetter},
		{"higher is better", steady, scale(steady, 0.8), higher, verdictWorse},
		{"higher and better", steady, scale(steady, 1.2), higher, verdictBetter},
		{"spread wider than bound", noisy, scale(noisy, 1.15), lower, verdictUnresolved},
		{"noisy but every run slower", steady, scale(steady, 2), lower, verdictWorse},
	} {
		if got, _, _ := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareExitCodes drives compare end to end on result files.
func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		var buf bytes.Buffer
		for i := 0; i < 5; i++ {
			r := result{Workload: "hot-replay", Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				r.Metrics[d.name] = metric{Value: 10 + float64(i)*0.01, Unit: d.unit}
			}
			r.Metrics["latency_p50_ms"] = metric{Value: p50 + float64(i)*0.01, Unit: "ms"}
			line, _ := json.Marshal(r)
			buf.Write(append(line, '\n'))
		}
		p := dir + "/" + name
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, slow := write("a.jsonl", 10), write("same.jsonl", 10), write("slow.jsonl", 20)
	var out, errOut bytes.Buffer
	if code := run([]string{"compare", a, same}, &out, &errOut); code != 0 {
		t.Errorf("identical runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if code := run([]string{"compare", a, slow}, &out, &errOut); code != 1 {
		t.Errorf("doubled p50: exit %d, want 1", code)
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-seconds", "0"},
		{"-seconds", "-3"},
		{"-clients", "0"},
		{"-clients", strconv.Itoa(runtime.NumCPU() + 1)},
		{"-trace", "2"},
		{"-seed", "1", "stray"},
		{"-no-such-flag"},
		{"compare", "only-one.jsonl"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q on a refused command line", args, out.String())
		}
	}
	if _, err := parseFlags([]string{"--workload", "cold-crawl", "--seed", "3", "--seconds", "10", "--trace", "1"}, &bytes.Buffer{}); err != nil {
		t.Errorf("the documented double-dash command line is refused: %v", err)
	}
}
