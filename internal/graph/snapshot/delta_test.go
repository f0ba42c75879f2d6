package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/graph"
)

// churnDelta builds a small valid delta for g: delete one safely removable
// edge, add one non-edge.
func churnDelta(t *testing.T, g *graph.Graph, rng *rand.Rand) graph.Delta {
	t.Helper()
	var d graph.Delta
	for attempt := 0; attempt < 10000 && len(d.Dels) == 0; attempt++ {
		u, v := g.EdgeAt(rng.Int63n(2 * g.NumEdges()))
		if g.Degree(u) > 1 && g.Degree(v) > 1 {
			d.Dels = append(d.Dels, graph.Edge{U: u, V: v}.Canonical())
		}
	}
	n := g.NumNodes()
	for attempt := 0; attempt < 10000 && len(d.Adds) == 0; attempt++ {
		e := graph.Edge{U: graph.Node(rng.Intn(n)), V: graph.Node(rng.Intn(n))}.Canonical()
		if e.U != e.V && !g.HasEdge(e.U, e.V) && (len(d.Dels) == 0 || e != d.Dels[0]) {
			d.Adds = append(d.Adds, e)
		}
	}
	if len(d.Adds) == 0 || len(d.Dels) == 0 {
		t.Fatal("could not build a churn delta")
	}
	return d
}

// saveChain persists g as a base snapshot and applies/persists segs delta
// segments, returning the base path, the final graph, and the deltas.
func saveChain(t *testing.T, dir string, segs int) (string, *graph.Graph, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	base := randomGraph(t, rng, 80, 300, 2)
	path := filepath.Join(dir, "chain.osnb")
	if err := Save(path, base); err != nil {
		t.Fatal(err)
	}
	g := base
	for i := 0; i < segs; i++ {
		d := churnDelta(t, g, rng)
		ng, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SaveDelta(path, g, ng, d); err != nil {
			t.Fatal(err)
		}
		g = ng
	}
	return path, base, g
}

func TestDeltaRoundTripAndAutoApply(t *testing.T) {
	path, _, want := saveChain(t, t.TempDir(), 3)
	segs, err := ListDeltas(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("ListDeltas found %d segments, want 3", len(segs))
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != want.Version() {
		t.Fatalf("loaded version %d, want %d", got.Version(), want.Version())
	}
	assertGraphsIdentical(t, want, got)
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("loaded chain fingerprint differs from in-memory result")
	}
}

func TestCompactSnapshotRemovesSegments(t *testing.T) {
	path, _, g := saveChain(t, t.TempDir(), 3)
	removed, err := CompactSnapshot(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("CompactSnapshot removed %d segments, want 3", removed)
	}
	segs, err := ListDeltas(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("%d segments survive compaction, want 0", len(segs))
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != g.Version() {
		t.Fatalf("compacted base at version %d, want %d", got.Version(), g.Version())
	}
	assertGraphsIdentical(t, g, got)
}

// TestLoadSkipsStaleSegments models a compaction that crashed after
// rewriting the base but before unlinking the absorbed segments: Load must
// skip them by version and still produce the right graph.
func TestLoadSkipsStaleSegments(t *testing.T) {
	path, _, g := saveChain(t, t.TempDir(), 2)
	// Rewrite the base at the final version but leave the segments behind.
	if err := Save(path, g.Compact()); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != g.Version() {
		t.Fatalf("loaded version %d, want %d", got.Version(), g.Version())
	}
	assertGraphsIdentical(t, g, got)
}

func TestLoadRejectsDeltaChainGap(t *testing.T) {
	path, _, _ := saveChain(t, t.TempDir(), 3)
	segs, err := ListDeltas(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segs[1].Path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "jumps") {
		t.Fatalf("Load with a missing middle segment: err = %v, want chain-gap error", err)
	}
}

// corruptedDeltaLoad writes a chain, mutates the first segment's bytes via
// fn, and returns Load's error.
func corruptedDeltaLoad(t *testing.T, fn func([]byte) []byte) error {
	t.Helper()
	path, _, _ := saveChain(t, t.TempDir(), 1)
	segs, err := ListDeltas(path)
	if err != nil || len(segs) != 1 {
		t.Fatalf("ListDeltas: %v (%d segments)", err, len(segs))
	}
	raw, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].Path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	return err
}

func TestDeltaRejectsBitFlip(t *testing.T) {
	err := corruptedDeltaLoad(t, func(raw []byte) []byte {
		raw[deltaHeaderSize+2] ^= 0x10 // flip a payload bit
		return raw
	})
	if err == nil {
		t.Fatal("Load accepted a bit-flipped delta segment")
	}
}

func TestDeltaRejectsTruncation(t *testing.T) {
	for _, cut := range []int{1, 4, 9} {
		err := corruptedDeltaLoad(t, func(raw []byte) []byte { return raw[:len(raw)-cut] })
		if err == nil {
			t.Fatalf("Load accepted a segment truncated by %d bytes", cut)
		}
	}
}

func TestDeltaRejectsUnknownVersion(t *testing.T) {
	err := corruptedDeltaLoad(t, func(raw []byte) []byte {
		binary.LittleEndian.PutUint32(raw[4:8], DeltaVersion+1)
		// Re-seal the CRC so only the version check can fail.
		reseal(raw)
		return raw
	})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown delta version: err = %v, want version error", err)
	}
}

func TestDeltaRejectsOutOfRangeEndpoint(t *testing.T) {
	err := corruptedDeltaLoad(t, func(raw []byte) []byte {
		// First add edge's U endpoint, just past the header.
		binary.LittleEndian.PutUint32(raw[deltaHeaderSize:], 1<<30)
		reseal(raw)
		return raw
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range endpoint: err = %v, want range error", err)
	}
}

// reseal recomputes the trailing CRC over a mutated segment or snapshot so
// the deliberate corruption under test is reached instead of the checksum.
func reseal(raw []byte) {
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
}

// TestLoadDeltaRefusesImpossibleCount: a 56-byte segment, a bare header
// whose add count claims 2^28 edges, must fail on its size before the edge
// array is sized from the count, which would take 2 GiB.
func TestLoadDeltaRefusesImpossibleCount(t *testing.T) {
	raw := make([]byte, deltaHeaderSize)
	copy(raw, DeltaMagic)
	binary.LittleEndian.PutUint32(raw[4:8], DeltaVersion)
	binary.LittleEndian.PutUint64(raw[8:16], 10)
	binary.LittleEndian.PutUint64(raw[40:48], 1<<28)
	path := filepath.Join(t.TempDir(), "g.d1.osnd")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := LoadDelta(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("LoadDelta accepted a segment claiming 2^28 adds in 56 bytes")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("LoadDelta allocated %d bytes for a 56-byte segment before refusing it", grew)
	}
}

// TestSaveDeltaFailureLeavesNoSegment: when the write fails after its
// rename (at the directory fsync), SaveDelta reports the error and removes
// the segment, so the refused delta does not replay at the next load.
func TestSaveDeltaFailureLeavesNoSegment(t *testing.T) {
	path, _, g := saveChain(t, t.TempDir(), 1)
	errSync := errors.New("directory fsync failed")
	writeFile = func(p string, fill func(io.Writer) error) error {
		if err := atomicfile.Write(p, fill); err != nil {
			return err
		}
		return errSync
	}
	defer func() { writeFile = atomicfile.Write }()
	d := churnDelta(t, g, rand.New(rand.NewSource(7)))
	ng, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaveDelta(path, g, ng, d); !errors.Is(err, errSync) {
		t.Fatalf("SaveDelta returned %v, want the write's error", err)
	}
	if _, err := os.Stat(DeltaPath(path, ng.Version())); !os.IsNotExist(err) {
		t.Fatalf("refused segment still on disk: %v", err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version() != g.Version() || loaded.Fingerprint() != g.Fingerprint() {
		t.Errorf("load gave version %d, want %d without the refused delta", loaded.Version(), g.Version())
	}
}
