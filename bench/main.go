// Command bench is the serving benchmark: it builds the deployed topology in
// process — one gateway in front of two serve replicas, each with its own
// trajectory store — drives named workloads through the gateway's HTTP
// front, checks every answer, and prints the end-to-end metrics by name
// with their units. A traced run (-trace 1) adds spans at every layer
// boundary and layer probes, and prints the per-layer metrics instead.
//
// Usage (from this directory; bench/run.sh wraps the same flags for a
// checkout root):
//
//	go run . -seed 1                         every workload, each in its own process
//	go run . -workload hot-replay -seed 3    one workload in this process
//	go run . -seed 1 -trace 1                per-layer metrics and a spans file
//	go run . -seed 1 -out runs.jsonl         also append each result as a JSON line
//	go run . compare parent.jsonl change.jsonl
//
// A run that completes ends its standard output with one JSON object with
// the keys correct, attempted, failed and metrics. A refused command line
// exits 2 and prints no result.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options are the validated command-line settings of one run.
type options struct {
	workload string // "" runs every workload, each in a child process
	seed     int64
	seconds  float64
	trace    bool
	out      string
	scale    float64 // graph size factor: 1 from the command line, smaller in tests
	clients  int
	workdir  string
}

// errUsage marks a command line the benchmark refuses (exit code 2).
var errUsage = errors.New("usage")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line and returns the process exit code: 0 on a
// correct run, 1 on a failed check or a regression, 2 on a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.workload == "" {
		return runAll(o, args, stdout, stderr)
	}
	res, err := runWorkload(o, workloadByName(o.workload))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := report(o, res, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// parseFlags reads and validates the run flags.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	o := options{scale: 1}
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload ("+strings.Join(workloadNames(), ", ")+"); empty runs all, each in its own process")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured window per workload, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and layer probes and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "append each workload's full result to this file as one JSON line")
	fs.IntVar(&o.clients, "clients", 2, "closed-loop client goroutines (at most the CPU count)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for stores, snapshots and spans files")
	if err := fs.Parse(args); err != nil {
		return o, fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("%w: unexpected argument %q", errUsage, fs.Arg(0))
	}
	if o.workload != "" && workloadByName(o.workload) == nil {
		return o, fmt.Errorf("%w: unknown workload %q (want one of %s)", errUsage, o.workload, strings.Join(workloadNames(), ", "))
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("%w: -seconds must be positive, got %g", errUsage, o.seconds)
	}
	if o.clients < 1 || o.clients > runtime.NumCPU() {
		return o, fmt.Errorf("%w: -clients must be between 1 and the CPU count %d, got %d", errUsage, runtime.NumCPU(), o.clients)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("%w: -trace must be 0 or 1, got %d", errUsage, trace)
	}
	o.trace = trace == 1
	if o.workdir == "" {
		return o, fmt.Errorf("%w: -workdir must be non-empty", errUsage)
	}
	return o, nil
}

// summary is the last line every run prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints a workload result for people, appends it to -out, and
// ends with the summary line holding the metrics of the run's mode.
func report(o options, res *result, stdout io.Writer) error {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	sum := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", res.Workload, d.name)
		}
		sum.Metrics[d.name] = m
	}

	fmt.Fprintf(stdout, "== %s  seed=%d trace=%t commit=%s %s nproc=%d gomaxprocs=%d\n",
		res.Workload, res.Meta.Seed, res.Trace, res.Meta.Commit, res.Meta.GoVersion, res.Meta.NumCPU, res.Meta.GoMaxProcs)
	fmt.Fprintf(stdout, "   graph |V|=%d |E|=%d, %d setups, %.1fs warm-up, %.1fs measured, %d clients, limit %.0f ms, tail p%.1f (%d samples beyond)\n",
		res.Meta.Nodes, res.Meta.Edges, res.Meta.Setups, res.Meta.WarmupS, res.Meta.Seconds, res.Meta.Clients,
		res.Meta.LimitMs, float64(res.Tail.PerMille)/10, res.Tail.Beyond)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "   %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, v := range res.Violations {
		fmt.Fprintln(stdout, "   CHECK FAILED:", v)
	}
	if res.SpansFile != "" {
		fmt.Fprintln(stdout, "   spans:", res.SpansFile)
	}

	if o.out != "" {
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(o.out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runAll runs every workload in its own child process — the binary
// re-executes itself with -workload — so memory high-water marks, GC and
// CPU accounting stay per workload. It relays the children's output and
// ends with one summary line whose metrics are keyed workload.metric.
func runAll(o options, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	total := summary{Correct: true, Metrics: make(map[string]metric)}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		var out bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		err := cmd.Run()
		var sum summary
		if jerr := json.Unmarshal(lastLine(out.Bytes()), &sum); jerr != nil || err != nil {
			fmt.Fprintf(stderr, "bench: workload %s failed: %v\n", w.name, errors.Join(err, jerr))
			total.Correct = false
			code = 1
			continue
		}
		total.Correct = total.Correct && sum.Correct
		total.Attempted += sum.Attempted
		total.Failed += sum.Failed
		for n, m := range sum.Metrics {
			total.Metrics[w.name+"."+n] = m
		}
	}
	if !total.Correct {
		code = 1
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// runMeta is the provenance every result records.
type runMeta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	WarmupS    float64 `json:"warmup_s"`
	Setups     int     `json:"setups"`
	LimitMs    float64 `json:"latency_limit_ms"`
	TailLevel  int     `json:"tail_per_mille"`
	Nodes      int     `json:"graph_nodes"`
	Edges      int64   `json:"graph_edges"`
	Started    string  `json:"started"`
}

// newMeta fills the provenance fields that do not depend on the workload.
func newMeta(o options) runMeta {
	return runMeta{
		Commit:     buildCommit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       o.seed,
		Scale:      o.scale,
		Clients:    o.clients,
		Seconds:    o.seconds,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// buildCommit reports the VCS revision the binary was built from, as the
// go command stamped it; "unknown" when built outside a git checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
