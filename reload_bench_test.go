package repro

import (
	"bytes"
	"context"
	"io"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/store"
)

// BenchmarkReloadStages times the stages of persisting and reloading a
// trajectory: a fresh recording pays the first two before its request
// returns, and every evicted trajectory's next request pays the rest. It
// runs on the serving benchmark's trajectory shape: the pokec stand-in at
// scale 5 (graph seed 2018), budget 1000, two walkers, burn-in 300, recorded
// and persisted by a serve.Engine. The replayed batch is the benchmark's
// mixed batch: 8 label pairs (every 8th of the 64 most frequent), size,
// census top 10, unlabeled wedges and degree assortativity. -short uses the
// scale-1 graph. Sub-benchmarks:
//
//   - layout: store.Encode, whose size is the cache weight of a fresh
//     recording and which the engine's save writes;
//   - write: store.Write into a reused buffer;
//   - read: the file into a reused buffer, as store.Load reads it;
//   - decode: store.Decode of the image; it also reports the file's bytes
//     (file-B) and the friend-list entries the file stores (list-entries);
//   - load-rebound: Dir.Load with the graph's labels, as the engine
//     reloads: the read, and a decode that skips the file's label
//     sections;
//   - first-replay: the batch on a freshly decoded trajectory rebound to
//     the graph's labels, as the engine admits a reload; it builds the
//     replay and label columns;
//   - warm-replay: the batch again on that trajectory.
//
// The layout and write stages run on the decoded trajectory rebound to the
// graph, as a fresh in-memory recording is bound. A full reload costs
// load-rebound + first-replay. Run it with
//
//	go test -bench BenchmarkReloadStages -benchmem -run '^$' .
func BenchmarkReloadStages(b *testing.B) {
	scale := 5.0
	if testing.Short() {
		scale = 1
	}
	g, err := gen.Build(gen.Pokec, scale, 2018)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := store.NewDir(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	e, err := serve.New(serve.Config{Graph: g, Name: "pokec", Store: dir, Budget: 1000, Walkers: 2, BurnIn: 300, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Estimate(context.Background(), serve.Query{Kind: "size"}); err != nil {
		b.Fatal(err)
	}
	key := store.Key{Budget: 1000, Walkers: 2, Seed: 7, GraphVersion: g.Version()}
	path, err := dir.Path("pokec", key)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	tasks := reloadBatch(b, g)
	replay := func(t *core.Trajectory) {
		_, errs := core.RunTasksFused(t, tasks)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	decode := func() *core.Trajectory {
		t, err := store.Decode(raw)
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	b.Logf("trajectory file: %d bytes", len(raw))

	fresh := decode()
	fresh.BindLabels(g)
	b.Run("layout", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if n := store.Encode(fresh).Size(); n != int64(len(raw)) {
				b.Fatalf("encoded size %d, the file holds %d bytes", n, len(raw))
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		buf.Grow(len(raw))
		for range b.N {
			buf.Reset()
			if err := store.Write(&buf, fresh); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, len(raw))
		b.ResetTimer()
		for range b.N {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			fi, err := f.Stat()
			if err != nil {
				b.Fatal(err)
			}
			if fi.Size() != int64(len(buf)) {
				b.Fatalf("the file changed size: %d bytes, was %d", fi.Size(), len(buf))
			}
			if _, err := io.ReadFull(f, buf); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			decode()
		}
		b.ReportMetric(float64(len(raw)), "file-B")
		b.ReportMetric(float64(len(fresh.Data().Arena)), "list-entries")
	})
	b.Run("load-rebound", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := dir.Load("pokec", key, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("first-replay", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			b.StopTimer()
			t := decode()
			t.BindLabels(g)
			b.StartTimer()
			replay(t)
		}
	})
	b.Run("warm-replay", func(b *testing.B) {
		b.ReportAllocs()
		t := decode()
		t.BindLabels(g)
		replay(t)
		b.ResetTimer()
		for range b.N {
			replay(t)
		}
	})
}

// reloadBatch builds the serving benchmark's mixed batch on g.
func reloadBatch(b *testing.B, g *graph.Graph) []core.EstimationTask {
	census := exact.LabelPairCensus(g) // ascending by count
	var pairs []graph.LabelPair
	for i := 0; i < 64 && i < len(census); i += 8 {
		pairs = append(pairs, census[len(census)-1-i].Pair)
	}
	params := []struct {
		kind string
		p    core.TaskParams
	}{
		{"pairs", core.TaskParams{Pairs: pairs}},
		{"size", core.TaskParams{}},
		{"census", core.TaskParams{Top: 10}},
		{"motif", core.TaskParams{Motif: "wedges"}},
		{"assortativity", core.TaskParams{}},
	}
	tasks := make([]core.EstimationTask, len(params))
	for i, q := range params {
		spec, ok := core.LookupTask(q.kind)
		if !ok {
			b.Fatalf("no task kind %q", q.kind)
		}
		t, err := spec.NewTask(q.p)
		if err != nil {
			b.Fatal(err)
		}
		tasks[i] = t
	}
	return tasks
}
