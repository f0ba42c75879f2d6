package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/snapshot"
	"repro/internal/stats"
)

// Serving configuration shared by every workload, as cmd/serve deploys it
// by default: recordings wait out a 25 ms batching window, and cached
// trajectories live 10 minutes.
const (
	batchWindow = 25 * time.Millisecond
	cacheTTL    = 10 * time.Minute
	graphName   = "g"
	replicas    = 2
)

// graphSeed generates every workload's graph. The served graph is part of
// the deployment, not of the traffic: -seed draws keys, key order and
// deltas on one graph. (Graphs drawn per seed differ so much in hub degrees
// that the same traffic costs 1.1 to 2.9 ms per request across ten seeds,
// a spread no regression bound could absorb.)
const graphSeed = 2018

// writeEvery is the churn writer's interval between PATCHes. Every PATCH
// makes all of churn-topup's keys stale, and each key's next read tops it
// up. At this interval the top-ups take about 13% of the readers' time and
// are about 0.4% of the reads: the median stays a warm read that top-ups
// rarely disturb, and the p99.9 is a top-up.
const writeEvery = 2 * time.Second

// compactSegments is churn-topup's compaction threshold: every third PATCH
// compacts the delta log, so each measured window includes compactions.
const compactSegments = 2

// churnFrac is the share of edges one PATCH rewires (0.02%).
const churnFrac = 0.0002

// How requests pick their trajectory key.
const (
	pickZipf       = "zipf"        // Zipf(1.1) over the pre-recorded keys, per client
	pickUniform    = "uniform"     // uniform over the pre-recorded keys, per client
	pickFresh      = "fresh"       // a never-seen seed on every request
	pickRoundRobin = "round-robin" // the pre-recorded keys in turn
)

// workload is one traffic mix and the deployment it runs against.
type workload struct {
	name string
	// graphScale is the pokec stand-in's full-size scale (1.0 = 20k nodes).
	graphScale float64
	// budget, walkers and burnIn configure every trajectory key.
	budget, walkers, burnIn int
	// keys is how many keys set-up records; 0 with pickFresh.
	keys int
	pick string
	// mixed sends the 5-query mixed batch; otherwise one pairs query.
	mixed bool
	// cacheBytes is each replica's trajectory byte budget (0 = unbounded).
	cacheBytes int64
	// crawl records through a fresh httpsrc client per recording against
	// one faultsim upstream instead of the in-memory graph.
	crawl bool
	// churn logs PATCHed deltas beside each replica's snapshot and runs
	// the open-loop PATCH writer beside the closed-loop readers.
	churn bool
	// limitMs is the latency limit a read must meet (frozen at about 4x
	// the p50 measured when the benchmark was defined).
	limitMs float64
	// tailLevel is the tail percentile (per mille): the highest of p99.9,
	// p99, p95, p90 and p80 that leaves at least 10 samples beyond it at
	// the workload's usual sample count. It is fixed, so every run reports
	// the same percentile even when a slow run collects fewer samples.
	tailLevel int
}

// workloads are the benchmark's traffic mixes; the README records why each
// exists and which layer it stresses.
var workloads = []*workload{
	{
		name: "hot-replay", graphScale: 5.0,
		budget: 1000, walkers: 2, burnIn: 300, keys: 16, pick: pickZipf, mixed: true,
		limitMs: 6, tailLevel: 990,
	},
	{
		name: "evict-reload", graphScale: 5.0,
		budget: 1000, walkers: 2, burnIn: 300, keys: 64, pick: pickUniform, mixed: true,
		cacheBytes: 12 << 20,
		limitMs:    13, tailLevel: 990,
	},
	{
		name: "cold-crawl", graphScale: 1.0,
		budget: 100, walkers: 2, burnIn: 50, pick: pickFresh,
		crawl:   true,
		limitMs: 1000, tailLevel: 800,
	},
	{
		name: "churn-topup", graphScale: 5.0,
		budget: 1000, walkers: 2, burnIn: 300, keys: 8, pick: pickRoundRobin, mixed: true,
		churn:   true,
		limitMs: 7, tailLevel: 999,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// wireQuery is one query of a POST /estimate batch.
type wireQuery struct {
	Kind  string   `json:"kind"`
	Pairs [][2]int `json:"pairs,omitempty"`
	Motif string   `json:"motif,omitempty"`
	Top   int      `json:"top,omitempty"`
}

// wireRequest is a POST /estimate batch body.
type wireRequest struct {
	Graph   string      `json:"graph"`
	Budget  int         `json:"budget"`
	Walkers int         `json:"walkers"`
	Seed    int64       `json:"seed"`
	Queries []wireQuery `json:"queries"`
}

// inputs are everything a workload run generates from its seed before any
// part of the system starts: the graph, the queried label pairs and their
// true counts, the key seeds, the churn deltas and the snapshot bytes.
type inputs struct {
	root  int64
	g     *graph.Graph
	pairs []graph.LabelPair
	truth []float64
	// queries is the batch every request sends.
	queries []wireQuery
	// keySeeds are the pre-recorded keys' seeds, bodies their requests.
	keySeeds []int64
	bodies   [][]byte
	// deltas are the churn writer's PATCH bodies, each valid on the graph
	// the previous ones produced.
	deltas [][]byte
	// snapshot is the graph's .osnb encoding, which every replica loads.
	snapshot []byte
}

// prepare generates a workload's inputs. Everything but the graph derives
// from stats.Derive(seed, workload name), so one seed always yields the
// same keys, key order and deltas.
func prepare(w *workload, o options) (*inputs, error) {
	in := &inputs{root: stats.Derive(o.seed, w.name)}
	g, err := gen.Build(gen.Pokec, w.graphScale*o.scale, graphSeed)
	if err != nil {
		return nil, err
	}
	in.g = g
	in.pairs, in.truth = pickPairs(g, 8)

	wirePairs := make([][2]int, len(in.pairs))
	for i, p := range in.pairs {
		wirePairs[i] = [2]int{int(p.T1), int(p.T2)}
	}
	in.queries = []wireQuery{{Kind: "pairs", Pairs: wirePairs}}
	if w.mixed {
		in.queries = append(in.queries,
			wireQuery{Kind: "size"},
			wireQuery{Kind: "census", Top: 10},
			wireQuery{Kind: "motif", Motif: "wedges"},
			wireQuery{Kind: "assortativity"})
	}
	keys := newSeedStream(in.root, "keys")
	for i := 0; i < w.keys; i++ {
		in.keySeeds = append(in.keySeeds, keys.next())
		in.bodies = append(in.bodies, w.body(in, in.keySeeds[i]))
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, g); err != nil {
		return nil, err
	}
	in.snapshot = buf.Bytes()
	if w.churn {
		windows := 1
		if o.trace {
			windows = 2 // untraced, then traced
		}
		in.deltas, err = churnDeltas(g, windows*writesPerWindow(o.seconds), stats.Derive(in.root, "churn"))
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// seedStream hands out distinct seeds of one named stream, safely across
// goroutines. Numbered streams come from a seed sequence rather than from
// stats.Derive with numbered tags: Derive mixes a tag's bytes almost
// linearly, so tags differing only in trailing digits often collide
// ("fresh/1" ... "fresh/300" yield 53 distinct seeds).
type seedStream struct {
	mu  sync.Mutex
	seq *stats.SeedSequence
}

func newSeedStream(root int64, name string) *seedStream {
	return &seedStream{seq: stats.NewSeedSequence(stats.Derive(root, name))}
}

// next returns the stream's next seed, never 0 (serve reads a zero
// trajectory seed as "the engine default").
func (s *seedStream) next() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if v := s.seq.Next(); v != 0 {
			return v
		}
	}
}

// body renders the request for the key with the given seed.
func (w *workload) body(in *inputs, seed int64) []byte {
	raw, err := json.Marshal(wireRequest{Graph: graphName, Budget: w.budget, Walkers: w.walkers, Seed: seed, Queries: in.queries})
	if err != nil {
		panic(err) // a fixed struct of ints and strings always encodes
	}
	return raw
}

// tasks builds the core replay tasks equivalent to the request's batch, for
// the layer probes and the bit-identity check.
func (in *inputs) tasks() ([]core.EstimationTask, error) {
	tasks := make([]core.EstimationTask, len(in.queries))
	for i, q := range in.queries {
		spec, ok := core.LookupTask(q.Kind)
		if !ok {
			return nil, fmt.Errorf("no task kind %q", q.Kind)
		}
		p := core.TaskParams{Motif: q.Motif, Top: q.Top}
		for _, pr := range q.Pairs {
			p.Pairs = append(p.Pairs, graph.LabelPair{T1: graph.Label(pr[0]), T2: graph.Label(pr[1])})
		}
		t, err := spec.NewTask(p)
		if err != nil {
			return nil, err
		}
		tasks[i] = t
	}
	return tasks, nil
}

// pickPairs chooses n label pairs spread over the graph's most frequent
// ones — every 8th of the top 8n by exact count — with their true counts.
// Rarer pairs make budget-100 estimates too noisy to track.
func pickPairs(g *graph.Graph, n int) ([]graph.LabelPair, []float64) {
	census := exact.LabelPairCensus(g) // ascending by count
	top := min(8*n, len(census))
	step := max(top/n, 1)
	var pairs []graph.LabelPair
	var truth []float64
	for i := 0; i < top && len(pairs) < n; i += step {
		pc := census[len(census)-1-i]
		pairs = append(pairs, pc.Pair)
		truth = append(truth, float64(pc.Count))
	}
	return pairs, truth
}

// writesPerWindow bounds how many PATCHes the churn writer sends in one
// measured window: one per writeEvery due strictly inside it.
func writesPerWindow(seconds float64) int {
	return int(time.Duration(seconds*float64(time.Second)) / writeEvery)
}

// patchBody is a PATCH /graphs/{name} body.
type patchBody struct {
	Add [][2]int `json:"add,omitempty"`
	Del [][2]int `json:"del,omitempty"`
}

// churnDeltas generates n chained churn deltas of churnFrac of the edges
// each: delta i is valid on the graph deltas 0..i-1 produce.
func churnDeltas(g *graph.Graph, n int, seed int64) ([][]byte, error) {
	rng := stats.NewSeedSequence(seed).NextRand()
	out := make([][]byte, 0, n)
	cur := g
	for i := 0; i < n; i++ {
		d, err := gen.Churn(cur, churnFrac, rng)
		if err != nil {
			return nil, err
		}
		next, err := cur.ApplyDelta(d)
		if err != nil {
			return nil, err
		}
		cur = next
		var pb patchBody
		for _, e := range d.Adds {
			pb.Add = append(pb.Add, [2]int{int(e.U), int(e.V)})
		}
		for _, e := range d.Dels {
			pb.Del = append(pb.Del, [2]int{int(e.U), int(e.V)})
		}
		raw, err := json.Marshal(pb)
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}
