package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
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
	if d := sameColumns(a, b); d != "" {
		return d
	}
	da := a.Data()
	for _, col := range [][]graph.Node{da.StartNode, da.Prev, da.Node, da.Arena} {
		for _, u := range col {
			if la, lb := a.Labels().Labels(u), b.Labels().Labels(u); !slices.Equal(la, lb) {
				return fmt.Sprintf("node %d labels %v vs %v", u, la, lb)
			}
		}
	}
	return ""
}

// sameColumns returns "" when a and b carry equal header fields and
// columns, or else the first difference.
func sameColumns(a, b *core.Trajectory) string {
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
	if !reflect.DeepEqual(a.Data(), b.Data()) {
		return "columns differ"
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

// image locates the sections of a well-formed v3 image: the offset of the
// start nodes, of each node record and each step record, in file order,
// and of the label sections.
type image struct {
	raw          []byte
	starts       int
	nodes, steps []int
	labels       int
}

func parseImage(raw []byte) image {
	w := int(binary.LittleEndian.Uint32(raw[8:]))
	s := int(binary.LittleEndian.Uint64(raw[48:]))
	m := int(binary.LittleEndian.Uint64(raw[56:]))
	im := image{raw: raw, starts: headerSize + 12*w}
	off := im.starts + 4*w
	for range m {
		im.nodes = append(im.nodes, off)
		off += 12 + 4*int(binary.LittleEndian.Uint32(raw[off+8:]))
	}
	for range s {
		im.steps = append(im.steps, off)
		off += 8
	}
	im.labels = off
	return im
}

func (im image) u32(off int) uint32 { return binary.LittleEndian.Uint32(im.raw[off:]) }

// record returns the offset of node u's record, or -1.
func (im image) record(u uint32) int {
	for _, off := range im.nodes {
		if im.u32(off) == u {
			return off
		}
	}
	return -1
}

// visits counts the walkers' visits of node u, starts included.
func (im image) visits(u uint32) (starts, steps int) {
	for w := range int(binary.LittleEndian.Uint32(im.raw[8:])) {
		if im.u32(im.starts+4*w) == u {
			starts++
		}
	}
	for _, off := range im.steps {
		if im.u32(off+4) == u {
			steps++
		}
	}
	return starts, steps
}

// splice returns a copy of the image with the bytes [at, at+cut) replaced
// by ins, the header's node-record and neighbor totals moved by dm and dn,
// and the CRC resealed.
func (im image) splice(at, cut int, ins []byte, dm, dn int) []byte {
	b := slices.Concat(im.raw[:at], ins, im.raw[at+cut:])
	binary.LittleEndian.PutUint64(b[56:], uint64(int(binary.LittleEndian.Uint64(b[56:]))+dm))
	binary.LittleEndian.PutUint64(b[64:], uint64(int(binary.LittleEndian.Uint64(b[64:]))+dn))
	reseal(b)
	return b
}

// TestDecodeRefusesImpossibleRecords mutates one record of a valid image at
// a time, reseals the CRC, and checks that Decode refuses each fault the
// reference decoder lets through: a friend list whose length is not its
// record's degree (the start's node's, then a step's node's), a list out
// of order, a step that does not leave from where its walker stands, a step
// to a node that is not a friend of its predecessor, a node listed twice,
// node records out of order, a start or a step node without a list, and a
// listed node that no walker stands on. Decode with a caller's labels in
// place of the file's, as an engine reloads, refuses each alike.
func TestDecodeRefusesImpossibleRecords(t *testing.T) {
	g := testGraph(t, 3)
	raw := encode(t, record(t, g, 2, 5))
	im := parseImage(raw)
	put := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	// mid is a step whose node has a friend list of at least two entries,
	// is no walker's start, and is visited once; it has a successor in the
	// same walker.
	mid, midNode := -1, -1
	for i := 1; i+1 < len(im.steps) && mid < 0; i++ {
		u := im.u32(im.steps[i] + 4)
		rec := im.record(u)
		if starts, steps := im.visits(u); starts == 0 && steps == 1 && im.u32(rec+8) >= 2 && im.u32(im.steps[i+1]) == u {
			mid, midNode = im.steps[i], rec
		}
	}
	if mid < 0 {
		t.Fatal("no once-visited step with a two-entry list and a successor")
	}
	start1 := im.record(im.u32(im.starts + 4))
	// unvisited is a node no walker stands on, and ins the offset of the
	// first node record above it.
	unvisited := uint32(0)
	for im.record(unvisited) >= 0 {
		unvisited++
	}
	ins := im.steps[0]
	for _, off := range im.nodes {
		if im.u32(off) > unvisited {
			ins = off
			break
		}
	}
	size := func(off int) int { return 12 + 4*int(im.u32(off+8)) }
	cases := []struct {
		name, want string
		image      func() []byte
	}{
		{"start degree differs from its list", "degree", func() []byte {
			b := slices.Clone(raw)
			put(b, start1+4, im.u32(start1+4)+1)
			return b
		}},
		{"step degree differs from its list", "degree", func() []byte {
			b := slices.Clone(raw)
			put(b, midNode+4, im.u32(midNode+4)-1)
			return b
		}},
		{"step list out of order", "not strictly increasing", func() []byte {
			b := slices.Clone(raw)
			put(b, midNode+12, im.u32(midNode+16))
			put(b, midNode+16, im.u32(midNode+12))
			return b
		}},
		{"step leaves from elsewhere", "leaves from", func() []byte {
			b := slices.Clone(raw)
			put(b, mid, (im.u32(mid)+1)%uint32(g.NumNodes()))
			return b
		}},
		{"step to a non-friend", "not in node", func() []byte {
			b := slices.Clone(raw)
			prev := graph.Node(im.u32(mid))
			for v := graph.Node(0); int(v) < g.NumNodes(); v++ {
				if v != prev && !slices.Contains(g.Neighbors(prev), v) {
					put(b, mid+4, uint32(v))
					break
				}
			}
			return b
		}},
		{"node listed twice", "listed twice", func() []byte {
			b := slices.Clone(raw)
			put(b, im.nodes[1], im.u32(im.nodes[0]))
			return b
		}},
		{"node records out of order", "out of order", func() []byte {
			b := slices.Clone(raw)
			put(b, im.nodes[0], im.u32(im.nodes[1]))
			put(b, im.nodes[1], im.u32(im.nodes[0]))
			return b
		}},
		{"start node without a list", "no friend list", func() []byte {
			return im.splice(start1, size(start1), nil, -1, -int(im.u32(start1+8)))
		}},
		{"step node without a list", "no friend list", func() []byte {
			return im.splice(midNode, size(midNode), nil, -1, -int(im.u32(midNode+8)))
		}},
		{"listed node without a walker", "no walker stands on it", func() []byte {
			rec := binary.LittleEndian.AppendUint32(nil, unvisited)
			rec = binary.LittleEndian.AppendUint64(rec, 0) // degree 0, no entries
			return im.splice(ins, 0, rec, 1, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.image()
			reseal(bad)
			if _, err := referenceDecode(bad); err != nil {
				t.Fatalf("the reference decoder refuses the mutation too, so it does not reach the new checks: %v", err)
			}
			_, err := Decode(bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode: %v, want a refusal mentioning %q", err, tc.want)
			}
			if _, err := decode(bad, g); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode with the graph's labels: %v, want a refusal mentioning %q", err, tc.want)
			}
		})
	}
}

// TestDecodeWithLabelsSkipsLabelSections checks the decode an engine
// reloads through when it rebinds to its graph's labels: with the graph
// given, decode yields Decode's columns bound to the graph, at one and at
// two walkers. It does not parse the file's label sections, so each fault
// in them that Decode refuses (labeled nodes out of order, label offsets
// that decrease, a ref past the label table; each CRC-resealed) is
// accepted there, with the same columns.
func TestDecodeWithLabelsSkipsLabelSections(t *testing.T) {
	g := testGraph(t, 3)
	for _, walkers := range []int{1, 2} {
		raw := encode(t, record(t, g, walkers, 5))
		want, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decode(raw, g)
		if err != nil {
			t.Fatalf("W=%d: %v", walkers, err)
		}
		if d := sameColumns(got, want); d != "" {
			t.Errorf("W=%d: decode with the graph's labels and Decode disagree: %s", walkers, d)
		}
		if got.Labels() != core.LabelReader(g) {
			t.Errorf("W=%d: bound to a %T, want the graph", walkers, got.Labels())
		}
	}

	raw := encode(t, record(t, g, 2, 5))
	want, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	im := parseImage(raw)
	L := int(binary.LittleEndian.Uint64(raw[72:]))
	T := int(binary.LittleEndian.Uint64(raw[80:]))
	if L < 3 {
		t.Fatalf("%d labeled nodes; the mutations need 3", L)
	}
	offs := im.labels + 4*L
	refs := offs + 4*(L+1) + 4*T
	cases := []struct {
		name, want string
		off        int
		v          uint32
	}{
		{"labeled nodes out of order", "not strictly increasing", im.labels, im.u32(im.labels + 4)},
		{"label offsets decrease", "offsets decrease", offs + 4, im.u32(offs+8) + 1},
		{"ref past the label table", "out of table range", refs, uint32(T)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := slices.Clone(raw)
			binary.LittleEndian.PutUint32(bad[tc.off:], tc.v)
			reseal(bad)
			if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode: %v, want a refusal mentioning %q", err, tc.want)
			}
			got, err := decode(bad, g)
			if err != nil {
				t.Fatalf("decode with the graph's labels: %v", err)
			}
			if d := sameColumns(got, want); d != "" {
				t.Errorf("columns differ from the intact image's: %s", d)
			}
		})
	}
}

// TestLoadRefusesVersion2 loads a file the version 2 writer saved (a
// two-walker recording on a 30-node graph, in testdata) and checks that the
// refusal names the version.
func TestLoadRefusesVersion2(t *testing.T) {
	_, err := Load("testdata/v2.osnt")
	if err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("Load of a version 2 file: %v, want a refusal naming version 2", err)
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
	columns := 8*(len(d.Ext)+len(d.ListOff)+len(loaded.PerWalkerCalls)) +
		4*(len(d.Prev)+len(d.Node)+len(d.Degree)+len(d.StepList)+len(d.StartNode)+len(d.StartDegree)+len(d.StartList)+len(d.ListNode)+len(d.Arena))
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

// TestListIndexFindsEveryNode checks the list index against a binary
// search over the same ascending nodes: every node ID of the graph, listed
// or not, on sets that are dense, sparse, clustered at either end of the ID
// space, or a single node.
func TestListIndexFindsEveryNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name  string
		n     int
		nodes func() []graph.Node
	}{
		{"single", 1, func() []graph.Node { return []graph.Node{0} }},
		{"one of many", 1000, func() []graph.Node { return []graph.Node{999} }},
		{"dense", 500, func() []graph.Node {
			var ns []graph.Node
			for u := range graph.Node(500) {
				if u%3 != 0 {
					ns = append(ns, u)
				}
			}
			return ns
		}},
		{"sparse", 100_000, func() []graph.Node {
			set := map[graph.Node]bool{}
			for len(set) < 300 {
				set[graph.Node(rng.Intn(100_000))] = true
			}
			var ns []graph.Node
			for u := range set {
				ns = append(ns, u)
			}
			slices.Sort(ns)
			return ns
		}},
		{"clustered low", 100_000, func() []graph.Node {
			var ns []graph.Node
			for u := range graph.Node(64) {
				ns = append(ns, u)
			}
			return ns
		}},
		{"clustered high", 100_000, func() []graph.Node {
			var ns []graph.Node
			for u := graph.Node(100_000 - 64); u < 100_000; u++ {
				ns = append(ns, u)
			}
			return ns
		}},
	} {
		nodes := tc.nodes()
		x := newListIndex(nodes, uint64(tc.n))
		if len(x.first) > len(nodes)+2 {
			t.Errorf("%s: %d buckets for %d list nodes", tc.name, len(x.first)-1, len(nodes))
		}
		for u := range graph.Node(tc.n) {
			j, ok := x.find(u)
			wantJ, wantOK := slices.BinarySearch(nodes, u)
			if ok != wantOK || ok && j != wantJ {
				t.Fatalf("%s: find(%d) = %d, %v; want %d, %v", tc.name, u, j, ok, wantJ, wantOK)
			}
		}
	}
}
