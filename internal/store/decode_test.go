package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// sameDecode returns "" when a and b carry equal header fields, columns and
// label reads over every node either references, or else the first
// difference.
func sameDecode(a, b *core.Trajectory) string {
	type header struct {
		Walkers                        int
		APICalls                       int64
		PerWalkerCalls                 []int64
		NumNodes                       int
		NumEdges                       int64
		ThinGap, BurnIn                int
		BudgetDriven                   bool
		GraphVersion, GraphFingerprint uint64
	}
	hdr := func(t *core.Trajectory) header {
		return header{t.Walkers, t.APICalls, t.PerWalkerCalls, t.NumNodes, t.NumEdges,
			t.ThinGap, t.BurnIn, t.BudgetDriven, t.GraphVersion, t.GraphFingerprint}
	}
	if ha, hb := hdr(a), hdr(b); !reflect.DeepEqual(ha, hb) {
		return fmt.Sprintf("header fields %+v vs %+v", ha, hb)
	}
	da, db := a.Data(), b.Data()
	if !reflect.DeepEqual(da, db) {
		return "columns differ"
	}
	for _, col := range [][]graph.Node{da.StartNode, da.Prev, da.Node, da.Arena} {
		for _, u := range col {
			if la, lb := a.Labels().Labels(u), b.Labels().Labels(u); !slices.Equal(la, lb) {
				return fmt.Sprintf("node %d labels %v vs %v", u, la, lb)
			}
		}
	}
	return ""
}

// walkViolation returns "" when every record of t is one a walk could have
// recorded — each friend list as long as its degree and strictly
// increasing, each step leaving from its walker's previous node to a node
// in that node's list — or else the first violation.
func walkViolation(t *core.Trajectory) string {
	checkList := func(what string, degree int, list []graph.Node) string {
		if len(list) != degree {
			return fmt.Sprintf("%s lists %d friends at degree %d", what, len(list), degree)
		}
		for j := 1; j < len(list); j++ {
			if list[j] <= list[j-1] {
				return fmt.Sprintf("%s's list is not strictly increasing at %d", what, j)
			}
		}
		return ""
	}
	for w := range t.NumWalkers() {
		if v := checkList(fmt.Sprintf("start %d", w), t.StartDegree(w), t.StartNeighbors(w)); v != "" {
			return v
		}
		at, atList := t.StartNode(w), t.StartNeighbors(w)
		lo, hi := t.WalkerSpan(w)
		for i := lo; i < hi; i++ {
			if t.StepPrev(i) != at {
				return fmt.Sprintf("step %d leaves from %d, walker stands at %d", i, t.StepPrev(i), at)
			}
			if !slices.Contains(atList, t.StepNode(i)) {
				return fmt.Sprintf("step %d moves to %d, not a friend of %d", i, t.StepNode(i), at)
			}
			if v := checkList(fmt.Sprintf("step %d", i), t.StepDegree(i), t.StepNeighbors(i)); v != "" {
				return v
			}
			at, atList = t.StepNode(i), t.StepNeighbors(i)
		}
	}
	return ""
}

// encode writes t to a fresh byte slice.
func encode(t testing.TB, traj *core.Trajectory) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, traj); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes raw's trailing CRC in place.
func reseal(raw []byte) {
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
}

// recordOffsets returns the byte offsets of a well-formed image's start
// records and step records, in file order.
func recordOffsets(raw []byte) (starts, steps []int) {
	w := int(binary.LittleEndian.Uint32(raw[8:]))
	s := int(binary.LittleEndian.Uint64(raw[48:]))
	off := headerSize + 12*w
	for range w {
		starts = append(starts, off)
		off += 12 + 4*int(binary.LittleEndian.Uint32(raw[off+8:]))
	}
	for range s {
		steps = append(steps, off)
		off += 16 + 4*int(binary.LittleEndian.Uint32(raw[off+12:]))
	}
	return starts, steps
}

// TestDecodeRefusesImpossibleRecords mutates one record of a valid image at
// a time, reseals the CRC, and checks that Decode refuses each fault the
// reference decoder lets through: a list whose length is not its record's
// degree, a list out of order, a step that does not leave from where its
// walker stands, and a step to a node that is not a friend of its
// predecessor.
func TestDecodeRefusesImpossibleRecords(t *testing.T) {
	g := testGraph(t, 3)
	raw := encode(t, record(t, g, 2, 5))
	starts, steps := recordOffsets(raw)
	u32 := func(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
	put := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	// mid is a step with a friend list of at least two entries and a
	// successor in the same walker.
	mid := -1
	for i := 1; i+1 < len(steps) && mid < 0; i++ {
		if u32(raw, steps[i]+12) >= 2 && u32(raw, steps[i+1]) == u32(raw, steps[i]+4) {
			mid = steps[i]
		}
	}
	if mid < 0 {
		t.Fatal("no step with a two-entry list and a successor")
	}
	cases := []struct {
		name, want string
		mutate     func(b []byte)
	}{
		{"start degree differs from its list", "degree", func(b []byte) { put(b, starts[1]+4, u32(b, starts[1]+4)+1) }},
		{"step degree differs from its list", "degree", func(b []byte) { put(b, mid+8, u32(b, mid+8)-1) }},
		{"step list out of order", "not strictly increasing", func(b []byte) {
			x, y := u32(b, mid+16), u32(b, mid+20)
			put(b, mid+16, y)
			put(b, mid+20, x)
		}},
		{"step leaves from elsewhere", "leaves from", func(b []byte) {
			put(b, mid, (u32(b, mid)+1)%uint32(g.NumNodes()))
		}},
		{"step to a non-friend", "not in node", func(b []byte) {
			prev := graph.Node(u32(b, mid))
			for v := graph.Node(0); int(v) < g.NumNodes(); v++ {
				if v != prev && !slices.Contains(g.Neighbors(prev), v) {
					put(b, mid+4, uint32(v))
					return
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := slices.Clone(raw)
			tc.mutate(bad)
			reseal(bad)
			if _, err := referenceDecode(bad); err != nil {
				t.Fatalf("the reference decoder refuses the mutation too, so it does not reach the new checks: %v", err)
			}
			_, err := Decode(bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode: %v, want a refusal mentioning %q", err, tc.want)
			}
		})
	}
}

// TestConcurrentLoadsMatchSerial loads distinct files from several
// goroutines at once, all through Load's pooled read buffers, and checks
// each result against a serial Load of the same file. Every goroutine also
// reads the labels of one shared loaded trajectory, so the first round
// races the first build of its label index.
func TestConcurrentLoadsMatchSerial(t *testing.T) {
	g := testGraph(t, 11)
	dir := t.TempDir()
	const files = 8
	paths := make([]string, files)
	want := make([]*core.Trajectory, files)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("t%d.osnt", i))
		if err := Save(paths[i], recordBudget(t, g, 100+50*i, int64(i))); err != nil {
			t.Fatal(err)
		}
		var err error
		if want[i], err = Load(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	shared := want[0]
	wantLabels := make([][]graph.Label, len(shared.Data().Node))
	var wg sync.WaitGroup
	got := make([]*core.Trajectory, files)
	errs := make([]error, files)
	for round := 0; round < 3; round++ {
		for i := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Load(paths[i])
				for j, u := range shared.Data().Node {
					if ls := shared.Labels().Labels(u); round > 0 && !slices.Equal(ls, wantLabels[j]) {
						t.Errorf("round %d: node %d labels %v, want %v", round, u, ls, wantLabels[j])
					}
				}
			}()
		}
		wg.Wait()
		for i := range paths {
			if errs[i] != nil {
				t.Fatalf("round %d file %d: %v", round, i, errs[i])
			}
			if d := sameDecode(got[i], want[i]); d != "" {
				t.Fatalf("round %d file %d: concurrent Load differs from serial: %s", round, i, d)
			}
		}
		for j, u := range shared.Data().Node {
			wantLabels[j] = g.Labels(u)
		}
	}
}

// TestLoadThenRebindBuildsNoLabelIndex loads an image whose header claims
// 2^20 nodes and rebinds it to another label reader, as the serving engine
// does with every reload. The label store's node index (4 bytes per graph
// node, 4 MiB here) is built on the first label read, so the load and
// rebind allocate under 1 MiB beyond the decoded columns.
func TestLoadThenRebindBuildsNoLabelIndex(t *testing.T) {
	g := testGraph(t, 5)
	traj := record(t, g, 2, 9)
	traj.NumNodes = 1 << 20
	path := filepath.Join(t.TempDir(), "wide.osnt")
	if err := Save(path, traj); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path) // also leaves a read buffer in the pool
	if err != nil {
		t.Fatal(err)
	}
	d := loaded.Data()
	columns := 8*(len(d.Ext)+len(d.NbrOff)+len(d.StartOff)+len(loaded.PerWalkerCalls)) +
		4*(len(d.Prev)+len(d.Node)+len(d.Degree)+len(d.StartNode)+len(d.StartDegree)+len(d.Arena))
	const runs = 5
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		tr, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		tr.BindLabels(g)
	}
	runtime.ReadMemStats(&after)
	perLoad := int(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("load and rebind: %d B, of which %d B are columns", perLoad, columns)
	if extra := perLoad - columns; extra >= 1<<20 {
		t.Errorf("load and rebind allocate %d B beyond the %d B of columns, want under 1 MiB", extra, columns)
	}
	// Without a rebind, the first label read builds the index and answers
	// as the graph does.
	for _, u := range d.Node {
		if got, want := loaded.Labels().Labels(u), g.Labels(u); !slices.Equal(got, want) {
			t.Fatalf("node %d: loaded labels %v, graph %v", u, got, want)
		}
	}
}

// TestDecodeKeepsNoReferenceToItsInput decodes an image, zeroes the image,
// and checks the trajectory did not change, as Load's reuse of its read
// buffers needs.
func TestDecodeKeepsNoReferenceToItsInput(t *testing.T) {
	g := testGraph(t, 13)
	raw := encode(t, record(t, g, 2, 3))
	kept, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(slices.Clone(raw))
	if err != nil {
		t.Fatal(err)
	}
	clear(raw)
	if d := sameDecode(kept, want); d != "" {
		t.Fatalf("decoded trajectory changed with its input: %s", d)
	}
}
