package snapshot

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// resealed copies raw and recomputes its trailing CRC, so that a fuzzer's
// mutations reach the parser instead of stopping at the checksum.
func resealed(raw []byte) []byte {
	raw = append([]byte(nil), raw...)
	if len(raw) >= 4 {
		reseal(raw)
	}
	return raw
}

// FuzzLoad feeds mutated .osnb snapshots to Load through a file, the way
// every tool's -graph flag reads them. Load must return a graph or an error,
// never panic, and every node of a graph it returns has strictly increasing
// labels. It does not assert graph.Validate on what loads: Load checks
// neighbor ranges but not yet adjacency order (see ROADMAP item 8). The
// seed is a fresh encoding of a small random graph.
func FuzzLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, randomGraph(f, rand.New(rand.NewSource(5)), 8, 12, 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "g"+Ext)
		if err := os.WriteFile(path, resealed(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Load(path)
		if err != nil {
			return // an error is a valid outcome
		}
		for u := range g.NumNodes() {
			ls := g.Labels(graph.Node(u))
			for i := 1; i < len(ls); i++ {
				if ls[i] <= ls[i-1] {
					t.Fatalf("node %d loaded with labels %v, not strictly increasing", u, ls)
				}
			}
		}
	})
}

// FuzzLoadDelta feeds mutated .osnd segments to LoadDelta, the reader Load
// replays segments through. LoadDelta must return a delta or an error,
// never panic; what it allocates stays within a small multiple of the
// segment's length, whatever counts the header claims; and every edge it
// returns lies within the header's node count. The seed is a fresh
// encoding of a two-edge delta.
func FuzzLoadDelta(f *testing.F) {
	d := graph.Delta{Adds: []graph.Edge{{U: 0, V: 3}}, Dels: []graph.Edge{{U: 1, V: 2}}}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d, DeltaHeader{NumNodes: 4, ParentVersion: 0, ParentFP: 1, ResultFP: 2}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = resealed(raw)
		path := filepath.Join(t.TempDir(), "g.d1"+DeltaExt)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, h, err := LoadDelta(path)
		runtime.ReadMemStats(&after)
		// io.ReadAll's doubling buffer can total about four times the
		// segment, and the edges one more.
		if limit := 8*uint64(len(raw)) + 64<<10; after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("LoadDelta allocated %d bytes for a %d-byte segment (limit %d)", after.TotalAlloc-before.TotalAlloc, len(raw), limit)
		}
		if err != nil {
			return
		}
		for _, e := range append(d.Adds, d.Dels...) {
			if e.U < 0 || int(e.U) >= h.NumNodes || e.V < 0 || int(e.V) >= h.NumNodes {
				t.Fatalf("edge %v escaped the range check of a %d-node segment", e, h.NumNodes)
			}
		}
	})
}
