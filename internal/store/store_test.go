package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"

	// Register the "size" and "motif" estimation tasks so the replay
	// bit-identity test covers every kind the server dispatches.
	_ "repro/internal/motif"
	_ "repro/internal/sizeest"
)

// testGraph builds a small labeled graph for recording test trajectories.
func testGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g0, err := gen.BarabasiAlbert(600, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Apply(g0, &gen.GenderLabeler{PFemale: 0.3, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	lcc, _ := graph.LargestComponent(g)
	return lcc
}

// record runs a real recording over the restricted access model; the
// returned trajectory is exactly what the serving layer caches.
func record(t testing.TB, g *graph.Graph, walkers int, seed int64) *core.Trajectory {
	t.Helper()
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	traj, err := core.RecordTrajectory(s, 150, core.Options{
		BurnIn:  50,
		Rng:     stats.NewSeedSequence(seed).NextRand(),
		Start:   -1,
		Walkers: walkers,
		Seed:    stats.Derive(seed, "fleet"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// replayAll runs every registered estimation task over a trajectory and
// returns the results keyed by kind. Label pairs cover the gender labeler's
// vocabulary.
func replayAll(t *testing.T, traj *core.Trajectory) map[string]any {
	t.Helper()
	pairs := []graph.LabelPair{{T1: 1, T2: 1}, {T1: 1, T2: 2}, {T1: 2, T2: 2}}
	out := map[string]any{}
	for _, kind := range core.TaskKinds() {
		spec, ok := core.LookupTask(kind)
		if !ok {
			t.Fatalf("kind %q vanished from the registry", kind)
		}
		params := core.TaskParams{Pairs: pairs}
		if kind == "motif" {
			params.Motif = "wedges"
		}
		task, err := spec.NewTask(params)
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		outs, errs := core.RunTasksFused(traj, []core.EstimationTask{task})
		if errs[0] != nil {
			// A replay failure (e.g. too few collisions for "size") must at
			// least fail identically for original and loaded trajectories;
			// record the message.
			out[kind] = "error: " + errs[0].Error()
			continue
		}
		out[kind] = outs[0]
	}
	return out
}

// TestRoundTripBitIdentical is the format's core contract: a trajectory
// saved and loaded back replays every estimation-task kind to bit-equal
// results, and re-encoding the loaded trajectory reproduces the original
// bytes.
func TestRoundTripBitIdentical(t *testing.T) {
	g := testGraph(t, 7)
	for _, walkers := range []int{1, 4} {
		traj := record(t, g, walkers, 11)
		traj.GraphVersion = 3
		traj.GraphFingerprint = 0xfeedface12345678

		var buf bytes.Buffer
		if err := Write(&buf, traj); err != nil {
			t.Fatalf("walkers=%d: %v", walkers, err)
		}
		if got, want := int64(buf.Len()), Encode(traj).Size(); got != want {
			t.Errorf("walkers=%d: wrote %d bytes, Encode says %d", walkers, got, want)
		}
		loaded, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("walkers=%d: %v", walkers, err)
		}

		if loaded.Walkers != traj.Walkers || loaded.APICalls != traj.APICalls ||
			loaded.NumNodes != traj.NumNodes || loaded.NumEdges != traj.NumEdges ||
			loaded.ThinGap != traj.ThinGap || loaded.BudgetDriven != traj.BudgetDriven ||
			loaded.BurnIn != traj.BurnIn || loaded.BurnIn != 50 ||
			loaded.GraphVersion != traj.GraphVersion || loaded.GraphFingerprint != traj.GraphFingerprint {
			t.Fatalf("walkers=%d: header fields differ: %+v vs %+v", walkers, loaded, traj)
		}
		if !reflect.DeepEqual(loaded.Data(), traj.Data()) ||
			!reflect.DeepEqual(loaded.PerWalkerCalls, traj.PerWalkerCalls) {
			t.Fatalf("walkers=%d: recorded streams differ after round trip", walkers)
		}

		want := replayAll(t, traj)
		got := replayAll(t, loaded)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("walkers=%d: replayed estimates differ after round trip:\n got %v\nwant %v", walkers, got, want)
		}

		var again bytes.Buffer
		if err := Write(&again, loaded); err != nil {
			t.Fatalf("walkers=%d: re-encode: %v", walkers, err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Errorf("walkers=%d: re-encoding the loaded trajectory is not byte-identical", walkers)
		}
	}
}

// TestCorruptionRejected flips one bit at a spread of offsets and truncates
// at a spread of lengths; every damaged file must fail to load — no silent
// best-effort parse of a checksummed format.
func TestCorruptionRejected(t *testing.T) {
	g := testGraph(t, 3)
	traj := record(t, g, 2, 5)
	var buf bytes.Buffer
	if err := Write(&buf, traj); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	dir := t.TempDir()
	path := filepath.Join(dir, "t.osnt")

	stride := len(raw)/97 + 1
	for off := 0; off < len(raw); off += stride {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("bit flip at offset %d loaded successfully", off)
		}
	}
	for _, cut := range []int{0, 3, headerSize - 1, headerSize, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("truncation to %d bytes loaded successfully", cut)
		}
	}
}

// TestSaveAtomicUnderConcurrentLoad hammers one path with concurrent Save
// and Load: because Save replaces by rename, every Load must observe a
// complete, valid file — never a torn write.
func TestSaveAtomicUnderConcurrentLoad(t *testing.T) {
	g := testGraph(t, 9)
	trajA := record(t, g, 1, 21)
	trajB := record(t, g, 2, 22)

	dir := t.TempDir()
	path := filepath.Join(dir, "hot.osnt")
	if err := Save(path, trajA); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tr := trajA
				if (w+i)%2 == 0 {
					tr = trajB
				}
				if err := Save(path, tr); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				loaded, err := Load(path)
				if err != nil {
					errs <- err
					return
				}
				if w := loaded.Walkers; w != 1 && w != 2 {
					errs <- os.ErrInvalid
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent save/load: %v", err)
	}
}

// TestDirLayout exercises the keyed directory layout: save, stat, keys,
// load, remove, and rejection of unsafe graph names.
func TestDirLayout(t *testing.T) {
	g := testGraph(t, 13)
	traj := record(t, g, 1, 31)

	d, err := NewDir(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	k1 := Key{Budget: 150, Walkers: 1, Seed: 31}
	k2 := Key{Budget: 150, Walkers: 1, Seed: -4}
	for _, k := range []Key{k1, k2} {
		if err := d.Save("pokec", k, Encode(traj)); err != nil {
			t.Fatal(err)
		}
	}
	has := func(graphName string, k Key) bool {
		_, err := d.Stat(graphName, k)
		return err == nil
	}
	if !has("pokec", k1) || has("pokec", Key{Budget: 1}) || has("other", k1) {
		t.Error("Stat does not reflect saved keys")
	}
	keys, err := d.Keys("pokec")
	if err != nil {
		t.Fatal(err)
	}
	if want := []Key{k2, k1}; !reflect.DeepEqual(keys, want) {
		t.Errorf("Keys = %v, want %v (sorted, seed -4 first)", keys, want)
	}
	if keys, err := d.Keys("neverloaded"); err != nil || keys != nil {
		t.Errorf("Keys of absent graph = %v, %v; want nil, nil", keys, err)
	}
	if _, err := d.Load("pokec", k1, nil); err != nil {
		t.Errorf("Load saved key: %v", err)
	}
	if _, err := d.Load("pokec", Key{Budget: 9}, nil); err == nil {
		t.Error("Load of absent key succeeded")
	}
	if err := d.Remove("pokec", k1); err != nil {
		t.Fatal(err)
	}
	if has("pokec", k1) {
		t.Error("key still present after Remove")
	}
	if err := d.Remove("pokec", k1); err != nil {
		t.Errorf("double Remove: %v", err)
	}

	for _, bad := range []string{"", "..", "a/b", ".hidden", "x y", "-lead"} {
		if ValidGraphName(bad) {
			t.Errorf("graph name %q accepted", bad)
		}
		if _, err := d.Path(bad, k1); err == nil {
			t.Errorf("Path accepted graph name %q", bad)
		}
	}
	for _, good := range []string{"pokec", "soc-pokec.v2", "A_1-b"} {
		if !ValidGraphName(good) {
			t.Errorf("graph name %q rejected", good)
		}
	}
}

// TestKeyNameRoundTrip pins the on-disk key spelling.
func TestKeyNameRoundTrip(t *testing.T) {
	for _, k := range []Key{
		{Budget: 500, Walkers: 4, Seed: 1},
		{Budget: 0, Walkers: 0, Seed: 0},
		{Budget: 123456, Walkers: 64, Seed: -987654321, GraphVersion: 42},
	} {
		got, ok := ParseKeyName(k.Filename())
		if !ok || got != k {
			t.Errorf("ParseKeyName(%q) = %v, %v; want %v, true", k.Filename(), got, ok, k)
		}
	}
	// "b1_w2_s3.osnt" is the pre-version spelling: unversioned files are not
	// parseable keys any more (the format bump invalidated their contents
	// anyway), so restart scans skip them instead of guessing a version.
	for _, bad := range []string{"b1_w2_s3_g0", "b1_w2_s3.osnt", "b1_w2_s3_g0.osnb", "w2_b1_s3_g0.osnt", "b-1_w2_s3_g0.osnt", "b1_w2_s3_g-1.osnt", "b1_w2_s3_g0.osnt.tmp1"} {
		if _, ok := ParseKeyName(bad); ok {
			t.Errorf("ParseKeyName(%q) accepted", bad)
		}
	}
}

// TestNilLabelRoundTrip: a trajectory with no bound label reader (built by
// hand, never recorded through a session) must still write a file whose
// size matches its Encoding's and loads back — regression for the layout
// omitting the mandatory leading label offset when labels were nil.
func TestNilLabelRoundTrip(t *testing.T) {
	traj := &core.Trajectory{}
	if err := traj.SetData(core.TrajectoryData{
		Ext:         []int64{0, 1},
		Prev:        []graph.Node{0},
		Node:        []graph.Node{1},
		Degree:      []int32{2},
		StepList:    []int32{1},
		StartNode:   []graph.Node{0},
		StartDegree: []int32{1},
		StartList:   []int32{0},
		ListNode:    []graph.Node{0, 1},
		ListOff:     []int64{0, 1, 3},
		Arena:       []graph.Node{1, 0, 2},
	}); err != nil {
		t.Fatal(err)
	}
	traj.Walkers = 1
	traj.APICalls = 3
	traj.PerWalkerCalls = []int64{3}
	traj.NumNodes = 3
	traj.NumEdges = 2
	var buf bytes.Buffer
	if err := Write(&buf, traj); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(buf.Len()), Encode(traj).Size(); got != want {
		t.Fatalf("wrote %d bytes, Encode says %d — the two layouts disagree", got, want)
	}
	loaded, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Labels().HasLabel(1, 7) || loaded.Labels().Labels(1) != nil {
		t.Error("nil-label trajectory loaded with phantom labels")
	}
}

// TestWriteRejectsMalformed pins Write's structural validation.
func TestWriteRejectsMalformed(t *testing.T) {
	if err := Write(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil trajectory accepted")
	}
	if err := Write(&bytes.Buffer{}, &core.Trajectory{}); err == nil {
		t.Error("empty trajectory accepted")
	}
	g := testGraph(t, 17)
	traj := record(t, g, 2, 3)
	mangled := *traj
	mangled.PerWalkerCalls = mangled.PerWalkerCalls[:1]
	if err := Write(&bytes.Buffer{}, &mangled); err == nil {
		t.Error("trajectory with mismatched per-walker bills accepted")
	}
}

// recordBudget is record with an explicit step budget, for tests that need
// trajectories of different lengths.
func recordBudget(t testing.TB, g *graph.Graph, budget int, seed int64) *core.Trajectory {
	t.Helper()
	s, err := osn.NewSession(g, osn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	traj, err := core.RecordTrajectory(s, budget, core.Options{
		BurnIn: 50,
		Rng:    stats.NewSeedSequence(seed).NextRand(),
		Start:  -1,
		Seed:   stats.Derive(seed, "fleet"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// TestLoadAllocsPerStep pins the decoder's allocation contract: the file's
// record order is the arena order, so decoding fills preallocated columns
// and the allocation COUNT is a constant — it must not grow with the number
// of recorded steps. A per-step (or per-neighbor) allocation sneaking into
// the decode loop would show up here as the long trajectory allocating more
// than the short one.
func TestLoadAllocsPerStep(t *testing.T) {
	g := testGraph(t, 9)
	encode := func(budget int) []byte {
		traj := recordBudget(t, g, budget, 13)
		var buf bytes.Buffer
		if err := Write(&buf, traj); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := encode(150)
	long := encode(600)
	if len(long) <= len(short) {
		t.Fatalf("long trajectory encodes to %d bytes, short to %d; lengths should differ", len(long), len(short))
	}
	shortAllocs := allocs(short)
	longAllocs := allocs(long)
	// The label store sections scale with the distinct referenced nodes, so
	// a handful of size-dependent slice headers is fine; 4x the steps must
	// not mean anywhere near 4x the allocations. The bound is deliberately
	// tight: one stray allocation per step would add hundreds.
	if longAllocs > shortAllocs+8 {
		t.Errorf("decoding 4x the steps costs %.0f allocs vs %.0f — a per-step allocation crept into Load", longAllocs, shortAllocs)
	}
	t.Logf("decode allocations: %.0f (short) vs %.0f (long)", shortAllocs, longAllocs)
}
