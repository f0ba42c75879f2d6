package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// randomGraph builds a random labeled graph through the Builder, exercising
// self-loop/duplicate cleanup and SetLabels resets along the way.
func randomGraph(t testing.TB, rng *rand.Rand, n, m, maxLabels int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n)) // self-loops allowed; Build drops them
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(10) == 0 { // sprinkle duplicates
			if err := b.AddEdge(v, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	for u := 0; u < n; u++ {
		k := rng.Intn(maxLabels + 1)
		for j := 0; j < k; j++ {
			if err := b.AddLabel(graph.Node(u), graph.Label(rng.Intn(50))); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(8) == 0 { // occasionally replace the whole set
			if err := b.SetLabels(graph.Node(u), graph.Label(rng.Intn(50))); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// assertGraphsIdentical checks bit-identity of degrees, neighbor lists and
// label sets — the round-trip contract of the snapshot format.
func assertGraphsIdentical(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", got.NumNodes(), want.NumNodes())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", got.NumEdges(), want.NumEdges())
	}
	for u := graph.Node(0); int(u) < want.NumNodes(); u++ {
		if got.Degree(u) != want.Degree(u) {
			t.Fatalf("Degree(%d) = %d, want %d", u, got.Degree(u), want.Degree(u))
		}
		wantNs, gotNs := want.Neighbors(u), got.Neighbors(u)
		for i := range wantNs {
			if gotNs[i] != wantNs[i] {
				t.Fatalf("Neighbors(%d)[%d] = %d, want %d", u, i, gotNs[i], wantNs[i])
			}
		}
		wantLs, gotLs := want.Labels(u), got.Labels(u)
		if len(gotLs) != len(wantLs) {
			t.Fatalf("len(Labels(%d)) = %d, want %d", u, len(gotLs), len(wantLs))
		}
		for i := range wantLs {
			if gotLs[i] != wantLs[i] {
				t.Fatalf("Labels(%d)[%d] = %d, want %d", u, i, gotLs[i], wantLs[i])
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("loaded graph fails validation: %v", err)
	}
}

// TestRoundTripProperty is the randomized round-trip property: for many
// random graphs, Build → Save → Load yields a graph bit-identical in
// degrees, neighbors and labels.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(200)
		m := rng.Intn(4 * n)
		g := randomGraph(t, rng, n, m, 3)

		path := filepath.Join(dir, "g.osnb")
		if err := Save(path, g); err != nil {
			t.Fatalf("trial %d: Save: %v", trial, err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatalf("trial %d: Load: %v", trial, err)
		}
		assertGraphsIdentical(t, g, loaded)
	}
}

// TestRoundTripEmptyAndEdgeCases covers degenerate graphs the property test
// is unlikely to hit.
func TestRoundTripEmptyAndEdgeCases(t *testing.T) {
	cases := map[string]func(t *testing.T) *graph.Graph{
		"no-edges-no-labels": func(t *testing.T) *graph.Graph {
			b := graph.NewBuilder(5)
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"single-edge": func(t *testing.T) *graph.Graph {
			b := graph.NewBuilder(2)
			if err := b.AddEdge(0, 1); err != nil {
				t.Fatal(err)
			}
			if err := b.AddLabel(0, 7); err != nil {
				t.Fatal(err)
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			g := build(t)
			var buf bytes.Buffer
			if err := Write(&buf, g); err != nil {
				t.Fatal(err)
			}
			loaded, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			assertGraphsIdentical(t, g, loaded)
		})
	}
}

// snapshotBytes serializes g in memory for the corruption tests.
func snapshotBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestExpectedSizeMatchesWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(t, rng, 60, 150, 2)
	raw := snapshotBytes(t, g)
	hdr := raw[:headerSize]
	want := ExpectedSize(
		binary.LittleEndian.Uint64(hdr[8:16]),
		binary.LittleEndian.Uint64(hdr[16:24]),
		binary.LittleEndian.Uint64(hdr[24:32]),
		binary.LittleEndian.Uint64(hdr[32:40]),
	)
	if int64(len(raw)) != want {
		t.Fatalf("snapshot is %d bytes, ExpectedSize says %d", len(raw), want)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	raw := snapshotBytes(t, randomGraph(t, rng, 20, 40, 2))
	copy(raw[0:4], "NOPE")
	if _, err := Read(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}
}

func TestReadRejectsUnknownVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	raw := snapshotBytes(t, randomGraph(t, rng, 20, 40, 2))
	binary.LittleEndian.PutUint32(raw[4:8], Version+1)
	if _, err := Read(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestReadDetectsFlippedPayloadByte(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	raw := snapshotBytes(t, randomGraph(t, rng, 50, 120, 2))
	// Flip one byte in the middle of the payload (past the header, before
	// the CRC).
	raw[headerSize+(len(raw)-headerSize)/2] ^= 0x40
	_, err := Read(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("corrupted snapshot loaded without error")
	}
	// Either the checksum or a structural check must reject it; the
	// checksum is the backstop for flips structural checks cannot see.
	if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "corrupt") &&
		!strings.Contains(err.Error(), "monotone") && !strings.Contains(err.Error(), "offset") {
		t.Fatalf("unexpected error for corrupted snapshot: %v", err)
	}
}

func TestReadDetectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	raw := snapshotBytes(t, randomGraph(t, rng, 50, 120, 2))
	for _, cut := range []int{len(raw) - 1, len(raw) / 2, headerSize + 3, headerSize, 5, 0} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", cut)
		}
	}
}

func TestLoadDetectsTruncatedFile(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	raw := snapshotBytes(t, randomGraph(t, rng, 50, 120, 2))
	path := filepath.Join(t.TempDir(), "trunc.osnb")
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil {
		t.Fatal("truncated file loaded without error")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want size-mismatch error mentioning truncation, got %v", err)
	}
}

// TestReadRejectsOutOfRangeNeighbor covers the malformed-but-checksummed
// case: a third-party producer writing a neighbor ID outside the node range
// (CRC valid, since the CRC only vouches for the bytes as written) must be
// rejected at load, not crash an estimator later.
func TestReadRejectsOutOfRangeNeighbor(t *testing.T) {
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, g)
	// Overwrite the first adjacency entry with an out-of-range ID and
	// re-stamp the CRC so only the semantic check can catch it.
	adjStart := headerSize + (3+1)*8
	binary.LittleEndian.PutUint32(raw[adjStart:], 99)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
	_, err = Read(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want out-of-range neighbor error, got %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.osnb")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

func TestSaveIsAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g1 := randomGraph(t, rng, 30, 60, 2)
	g2 := randomGraph(t, rng, 40, 90, 2)
	path := filepath.Join(t.TempDir(), "g.osnb")
	if err := Save(path, g1); err != nil {
		t.Fatal(err)
	}
	// Overwriting must replace the file wholesale, leaving no temp litter.
	if err := Save(path, g2); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, g2, loaded)
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir has %d entries, want just the snapshot", len(entries))
	}
}

// TestInternedLabelTable pins the interning invariant: the label table is
// sorted and deduplicated, and refs reconstruct the exact label stream.
func TestInternedLabelTable(t *testing.T) {
	b := graph.NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	// Same large label values reused across nodes: the table should hold
	// each once.
	for u, ls := range map[graph.Node][]graph.Label{
		0: {1000000, 5},
		1: {1000000},
		2: {5, 7},
		3: {7},
	} {
		if err := b.SetLabels(u, ls...); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, g)
	numLabels := binary.LittleEndian.Uint64(raw[24:32])
	if numLabels != 3 { // {5, 7, 1000000}
		t.Fatalf("label table has %d entries, want 3", numLabels)
	}
	loaded, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, g, loaded)
}
