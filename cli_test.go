package repro

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/osn/httpsrc"
	"repro/internal/osn/httpsrc/faultsim"
)

// buildTool compiles one cmd/ tool into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "." // repo root (the package directory of this test)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// runExpectUsageError runs a tool expecting flag validation to reject it:
// exit code 2 and an actionable message naming the offending flag.
func runExpectUsageError(t *testing.T, bin, wantFlag string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: expected a validation failure, got success:\n%s", filepath.Base(bin), args, out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Errorf("%s %v: exit code %d, want 2 (usage error)\n%s", filepath.Base(bin), args, code, out)
	}
	if !strings.Contains(string(out), wantFlag) {
		t.Errorf("%s %v: error message does not name %s:\n%s", filepath.Base(bin), args, wantFlag, out)
	}
}

// TestCLIFlagValidation pins the up-front flag validation of the tools:
// nonsense walker counts and budgets must fail fast with a usage error, not
// surface as deep engine errors mid-run.
func TestCLIFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	edgecount := buildTool(t, dir, "edgecount")
	census := buildTool(t, dir, "census")
	reproduce := buildTool(t, dir, "reproduce")
	mixtime := buildTool(t, dir, "mixtime")
	genosn := buildTool(t, dir, "genosn")
	sizeest := buildTool(t, dir, "sizeest")
	serve := buildTool(t, dir, "serve")
	gateway := buildTool(t, dir, "gateway")

	runExpectUsageError(t, edgecount, "-walkers", "-dataset", "facebook", "-scale", "0.1", "-walkers", "-3")
	runExpectUsageError(t, edgecount, "-budget", "-dataset", "facebook", "-scale", "0.1", "-budget", "0")
	runExpectUsageError(t, edgecount, "-budget", "-dataset", "facebook", "-scale", "0.1", "-budget", "-0.5")
	runExpectUsageError(t, edgecount, "-samples", "-dataset", "facebook", "-scale", "0.1", "-samples", "-10")
	runExpectUsageError(t, edgecount, "-burnin", "-dataset", "facebook", "-scale", "0.1", "-burnin", "-1")
	runExpectUsageError(t, census, "-walkers", "-dataset", "facebook", "-scale", "0.1", "-walkers", "-1")
	runExpectUsageError(t, census, "-budget", "-dataset", "facebook", "-scale", "0.1", "-budget", "0")
	runExpectUsageError(t, census, "-top", "-dataset", "facebook", "-scale", "0.1", "-top", "0")
	runExpectUsageError(t, reproduce, "-reps", "-table", "4", "-reps", "0")
	runExpectUsageError(t, reproduce, "-walkers", "-table", "4", "-walkers", "-2")
	runExpectUsageError(t, reproduce, "-scale", "-table", "4", "-scale", "-1")

	// mixtime and genosn follow the same exit-2 contract (PR 4).
	runExpectUsageError(t, mixtime, "-eps", "-dataset", "facebook", "-scale", "0.1", "-eps", "0")
	runExpectUsageError(t, mixtime, "-eps", "-dataset", "facebook", "-scale", "0.1", "-eps", "1.5")
	runExpectUsageError(t, mixtime, "-scale", "-dataset", "facebook", "-scale", "-2")
	runExpectUsageError(t, mixtime, "-starts", "-dataset", "facebook", "-scale", "0.1", "-starts", "0")
	runExpectUsageError(t, mixtime, "-maxsteps", "-dataset", "facebook", "-scale", "0.1", "-maxsteps", "0")
	runExpectUsageError(t, mixtime, "-workers", "-dataset", "facebook", "-scale", "0.1", "-workers", "-1")
	runExpectUsageError(t, mixtime, "-dataset", "-eps", "1e-3") // no input at all
	runExpectUsageError(t, genosn, "-scale", "-dataset", "facebook", "-scale", "0")
	runExpectUsageError(t, genosn, "-census", "-dataset", "facebook", "-scale", "0.1", "-census", "-1")
	runExpectUsageError(t, genosn, "-dataset", "-dataset", "")
	runExpectUsageError(t, genosn, "-graph", "-dataset", "facebook", "-text=false")

	// Delta-log flags (PR 7): genosn churn and serve compaction validate up
	// front like everything else.
	runExpectUsageError(t, genosn, "-churn", "-dataset", "facebook", "-scale", "0.1", "-graph", "x.osnb", "-churn", "-0.1")
	runExpectUsageError(t, genosn, "-churn", "-dataset", "facebook", "-scale", "0.1", "-graph", "x.osnb", "-churn", "1")
	runExpectUsageError(t, genosn, "-graph", "-dataset", "facebook", "-scale", "0.1", "-churn", "0.01")
	runExpectUsageError(t, serve, "-compact-segments", "-dataset", "facebook", "-scale", "0.1", "-compact-segments", "-1")

	// sizeest (new in PR 4) validates like its siblings.
	runExpectUsageError(t, sizeest, "-budget", "-dataset", "facebook", "-scale", "0.1", "-budget", "0")
	runExpectUsageError(t, sizeest, "-samples", "-dataset", "facebook", "-scale", "0.1", "-samples", "-5")
	runExpectUsageError(t, sizeest, "-walkers", "-dataset", "facebook", "-scale", "0.1", "-walkers", "-2")
	runExpectUsageError(t, sizeest, "-burnin", "-dataset", "facebook", "-scale", "0.1", "-burnin", "-3")
	runExpectUsageError(t, sizeest, "-gap", "-dataset", "facebook", "-scale", "0.1", "-gap", "-1")
	runExpectUsageError(t, sizeest, "-dataset", "-budget", "0.1") // no input at all

	// serve validates its workspace flags up front too (PR 5).
	runExpectUsageError(t, serve, "-dataset", "-budget", "0.1") // no input at all
	runExpectUsageError(t, serve, "-graphs", "-dataset", "facebook", "-graphs", dir)
	runExpectUsageError(t, serve, "-budget", "-dataset", "facebook", "-scale", "0.1", "-budget", "0")
	runExpectUsageError(t, serve, "-walkers", "-dataset", "facebook", "-scale", "0.1", "-walkers", "0")
	runExpectUsageError(t, serve, "-cache-bytes", "-dataset", "facebook", "-scale", "0.1", "-cache-bytes", "-1")
	runExpectUsageError(t, serve, "-drain", "-dataset", "facebook", "-scale", "0.1", "-drain", "0s")
	runExpectUsageError(t, serve, "-labels", "-graph", "x.osnb", "-labels", "x.labels")

	// gateway (PR 8) validates its routing tier flags up front: a missing or
	// malformed replica list, nonsense probe/quota settings, all exit 2
	// with a message naming the flag.
	runExpectUsageError(t, gateway, "-replicas") // required
	runExpectUsageError(t, gateway, "-replicas", "-replicas", "http://a:8080,,http://b:8080")
	runExpectUsageError(t, gateway, "-replicas", "-replicas", "ftp://a:8080")
	runExpectUsageError(t, gateway, "-replicas", "-replicas", "http://a:8080,http://a:8080")
	runExpectUsageError(t, gateway, "-probe-interval", "-replicas", "http://a:8080", "-probe-interval", "-1s")
	runExpectUsageError(t, gateway, "-probe-failures", "-replicas", "http://a:8080", "-probe-failures", "0")
	runExpectUsageError(t, gateway, "-quota-rate", "-replicas", "http://a:8080", "-quota-rate", "-5")
	runExpectUsageError(t, gateway, "-quota-burst", "-replicas", "http://a:8080", "-quota-burst", "-1")
	runExpectUsageError(t, gateway, "-quota-rate", "-replicas", "http://a:8080", "-quota-burst", "10")
	runExpectUsageError(t, gateway, "-tenant-header", "-replicas", "http://a:8080", "-tenant-header", "")
	runExpectUsageError(t, gateway, "-drain", "-replicas", "http://a:8080", "-drain", "0s")

	// -pprof (PR 9) must be a host:port listen address on both servers.
	runExpectUsageError(t, serve, "-pprof", "-dataset", "facebook", "-scale", "0.1", "-pprof", "nonsense")
	runExpectUsageError(t, gateway, "-pprof", "-replicas", "http://a:8080", "-pprof", "nonsense")

	// Live-source flags (PR 10): -source-url must be a well-formed http(s)
	// URL, the tuning knobs must be sane and need -source-url, and an
	// unwritable cache path fails fast before the upstream is ever dialed.
	runExpectUsageError(t, serve, "-source-url", "-dataset", "facebook", "-scale", "0.1", "-source-url", "not a url://")
	runExpectUsageError(t, serve, "-source-url", "-dataset", "facebook", "-scale", "0.1", "-source-url", "ftp://api:1234")
	runExpectUsageError(t, serve, "-source-rate", "-dataset", "facebook", "-scale", "0.1", "-source-url", "http://api:1234", "-source-rate", "-5")
	runExpectUsageError(t, serve, "-source-retries", "-dataset", "facebook", "-scale", "0.1", "-source-url", "http://api:1234", "-source-retries", "-2")
	runExpectUsageError(t, serve, "-source-timeout", "-dataset", "facebook", "-scale", "0.1", "-source-url", "http://api:1234", "-source-timeout", "-1s")
	runExpectUsageError(t, serve, "-source-url", "-dataset", "facebook", "-scale", "0.1", "-source-cache", "x.osnc")
	runExpectUsageError(t, serve, "-source-cache", "-dataset", "facebook", "-scale", "0.1", "-source-url", "http://api:1234", "-source-cache", filepath.Join(dir, "no-such-dir", "x.osnc"))

	// Snapshot input is exclusive with the other sources and embeds labels.
	runExpectUsageError(t, edgecount, "-graph", "-dataset", "facebook", "-graph", "x.osnb")
	runExpectUsageError(t, edgecount, "-labels", "-graph", "x.osnb", "-labels", "x.labels")
	runExpectUsageError(t, census, "-graph", "-edges", "x.edges", "-graph", "x.osnb")
	runExpectUsageError(t, sizeest, "-graph", "-dataset", "facebook", "-graph", "x.osnb")
	runExpectUsageError(t, sizeest, "-labels", "-graph", "x.osnb", "-labels", "x.labels")
}

// TestCLIServeFreshSourceCache starts serve against a live upstream with a
// -source-cache path that does not exist yet. The pre-flight check of the
// path must leave nothing there, so serve creates the cache as a valid
// header-only file and comes up; a second start reopens that file.
func TestCLIServeFreshSourceCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	serve := buildTool(t, dir, "serve")
	g, err := GenerateStandIn("facebook", 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	up := faultsim.New(g)
	defer up.Close()
	cache := filepath.Join(dir, "fresh.osnc")
	for start := 1; start <= 2; start++ {
		runServeUntilListening(t, serve, "-dataset", "facebook", "-scale", "0.1", "-seed", "7", "-burnin", "50",
			"-addr", "127.0.0.1:0", "-source-url", up.URL(), "-source-cache", cache)
		c, err := httpsrc.OpenCache(cache, g.NumNodes(), g.NumEdges())
		if err != nil {
			t.Fatalf("start %d left a cache that does not open: %v", start, err)
		}
		c.Close()
	}
}

// runServeUntilListening runs serve until it logs that it is listening, then
// stops it with SIGINT and waits for a clean exit. A serve that exits before
// listening fails the test with its output.
func runServeUntilListening(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(time.Minute, func() { cmd.Process.Kill() })
	defer watchdog.Stop()
	var out strings.Builder
	sc := bufio.NewScanner(stderr)
	listening := false
	for !listening && sc.Scan() {
		out.WriteString(sc.Text() + "\n")
		listening = strings.Contains(sc.Text(), "listening on")
	}
	if listening {
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Errorf("interrupting serve: %v", err)
			cmd.Process.Kill()
		}
	}
	for sc.Scan() {
		out.WriteString(sc.Text() + "\n")
	}
	err = cmd.Wait()
	if !listening {
		t.Fatalf("serve %v exited before listening (%v):\n%s", args, err, out.String())
	}
	if err != nil {
		t.Fatalf("serve %v: %v after SIGINT:\n%s", args, err, out.String())
	}
}

// TestCLISnapshotWorkflow exercises the preprocess-once/query-many split:
// genosn writes a .osnb binary snapshot, and edgecount/census consume it via
// -graph with results identical to the in-memory stand-in at the same seed.
func TestCLISnapshotWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	genosn := buildTool(t, dir, "genosn")
	edgecount := buildTool(t, dir, "edgecount")
	census := buildTool(t, dir, "census")

	snap := filepath.Join(dir, "net.osnb")
	out := run(t, genosn, "-dataset", "facebook", "-scale", "0.1", "-seed", "7",
		"-graph", snap, "-text=false", "-census", "0")
	if !strings.Contains(out, "wrote "+snap) {
		t.Fatalf("genosn output unexpected:\n%s", out)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("missing snapshot: %v", err)
	}

	// Snapshot-backed estimates are deterministic: two runs at the same
	// seed over the same .osnb file must print the same estimate and exact
	// count. (In-process bit-identity of loaded-vs-built graphs is pinned
	// by TestSnapshotEstimateBitIdentical.)
	args := []string{"-graph", snap, "-t1", "1", "-t2", "2",
		"-method", "NeighborSample-HH", "-budget", "0.2", "-burnin", "100", "-seed", "3"}
	extract := func(out string) (est string) {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "estimate F̂") || strings.Contains(line, "exact F") {
				est += line + "\n"
			}
		}
		return est
	}
	first := extract(run(t, edgecount, args...))
	second := extract(run(t, edgecount, args...))
	if first == "" || first != second {
		t.Fatalf("snapshot-backed estimate not deterministic:\n first: %q\n second: %q", first, second)
	}

	out = run(t, census, "-graph", snap, "-budget", "0.2", "-top", "3", "-seed", "7")
	if !strings.Contains(out, "discovered") {
		t.Fatalf("census -graph output unexpected:\n%s", out)
	}
}

// TestCLIEndToEnd builds every command-line tool and exercises a realistic
// workflow: generate a dataset to disk, discover its label pairs, estimate
// one pair from the files, measure mixing, and regenerate a paper table.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()

	genosn := buildTool(t, dir, "genosn")
	edgecount := buildTool(t, dir, "edgecount")
	census := buildTool(t, dir, "census")
	mixtime := buildTool(t, dir, "mixtime")
	reproduce := buildTool(t, dir, "reproduce")

	// 1. Generate a small dataset to disk.
	prefix := filepath.Join(dir, "net")
	out := run(t, genosn, "-dataset", "facebook", "-scale", "0.1", "-seed", "7", "-out", prefix, "-census", "2")
	if !strings.Contains(out, "wrote") {
		t.Fatalf("genosn output unexpected:\n%s", out)
	}
	for _, suffix := range []string{".edges", ".labels"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Fatalf("missing output file %s: %v", prefix+suffix, err)
		}
	}

	// 2. Discover pairs on the stand-in.
	out = run(t, census, "-dataset", "facebook", "-scale", "0.1", "-budget", "0.2", "-top", "3", "-seed", "7")
	if !strings.Contains(out, "discovered") {
		t.Fatalf("census output unexpected:\n%s", out)
	}

	// 3. Estimate the (1,2) pair from the on-disk files.
	out = run(t, edgecount, "-edges", prefix+".edges", "-labels", prefix+".labels",
		"-t1", "1", "-t2", "2", "-method", "NeighborExploration-HH", "-budget", "0.2", "-burnin", "100", "-seed", "3")
	if !strings.Contains(out, "estimate F̂") || !strings.Contains(out, "exact F") {
		t.Fatalf("edgecount output unexpected:\n%s", out)
	}

	// 3b. Estimate the graph's size from the same files — the no-priors
	// first step of a real crawl.
	sizeest := buildTool(t, dir, "sizeest")
	out = run(t, sizeest, "-edges", prefix+".edges", "-budget", "0.3", "-burnin", "100", "-seed", "3")
	if !strings.Contains(out, "estimated |V|") || !strings.Contains(out, "true |E|") {
		t.Fatalf("sizeest output unexpected:\n%s", out)
	}

	// 4. Mixing time with the spectral bound.
	out = run(t, mixtime, "-dataset", "facebook", "-scale", "0.1", "-eps", "1e-2", "-spectral")
	if !strings.Contains(out, "mixing time") || !strings.Contains(out, "spectral gap") {
		t.Fatalf("mixtime output unexpected:\n%s", out)
	}

	// 5. One paper table at smoke settings, with CSV export.
	csvdir := filepath.Join(dir, "csv")
	out = run(t, reproduce, "-table", "4", "-reps", "3", "-scale", "0.1", "-burnin", "100", "-csvdir", csvdir)
	if !strings.Contains(out, "Table 4: facebook") {
		t.Fatalf("reproduce output unexpected:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(csvdir, "table04.csv")); err != nil {
		t.Fatalf("missing CSV export: %v", err)
	}
}
