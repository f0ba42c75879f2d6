// Package store implements the .osnt binary trajectory format and the
// directory layout the serving workspace persists trajectories into. A
// recorded random walk is the system's most expensive artifact — every step
// was paid for with a metered API call — and PRs 2–4 made one recording
// answer every estimation workload. This package makes that artifact survive
// process death: a trajectory saved as .osnt and loaded back replays to
// byte-equal estimates, so a restarted server answers previously cached
// queries with zero API spend.
//
// # Format (version 3)
//
// All integers are little-endian and unsigned on the wire. A file is a
// fixed header, the per-walker arrays, one friend list per distinct node
// the walkers stand on, the step stream, an interned label store, and a
// trailing CRC:
//
//	offset  size              field
//	0       4                 magic "OSNT"
//	4       4                 format version (3)
//	8       4                 walkers (W)
//	12      4                 HT thinning gap
//	16      4                 flags (bit 0: budget-driven recording)
//	20      4                 recording burn-in (steps paid before sampling)
//	24      8                 numNodes  (graph prior |V|)
//	32      8                 numEdges  (graph prior |E|)
//	40      8                 apiCalls  (total billed recording cost)
//	48      8                 totalSteps (S, summed across walkers)
//	56      8                 listNodes (M, distinct start and step nodes)
//	64      8                 totalNeighbors (N, friend-list entries across the M lists)
//	72      8                 labelNodes (L, distinct labeled nodes referenced)
//	80      8                 labelTable (T, distinct label values)
//	88      8                 labelRefs  (R, total per-node label references)
//	96      8                 graphVersion (delta-log version of the recording graph)
//	104     8                 graphFingerprint (content hash of the recording graph)
//	112     W*8               per-walker billed calls
//	...     W*4               per-walker step counts
//	...     W*4               per-walker start nodes
//	...     variable          M node records: node, degree, nbrLen, nbrLen neighbors (u32 each), ascending node
//	...     S*8               S step records: prev, node (u32 each), walker-major
//	...     L*4               labeled node IDs, sorted ascending
//	...     (L+1)*4           label offsets into the refs array
//	...     T*4               label table: sorted distinct label values
//	...     R*4               label refs: indices into the label table
//	...     4                 CRC-32 (IEEE) of everything before it
//
// A walk revisits nodes in proportion to their degree, and every visit of
// a node within one recording reads the same crawl-cache response, so a
// node's friend list is stored once, in its node record, and a start or a
// step carries only its node ID. A step's degree is its node's.
//
// The label sections make a .osnt self-contained: the file stores, for every
// node the trajectory references (start nodes, step endpoints and all their
// recorded neighbors), that node's label set exactly as the recording
// session read it — interned through a distinct-value table like the .osnb
// graph snapshot. A loaded trajectory therefore replays without the graph,
// and replays bit-identically, because the labels it consults are the very
// bytes the live estimators saw.
//
// Version bumps are semantic, exactly as for .osnb: a reader rejects any
// version it does not know, and any layout change requires a new version.
// The trailing CRC pins the exact byte span of a version's layout.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"sort"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/graph"
)

// Magic identifies a .osnt file; the first four bytes of every saved
// trajectory.
const Magic = "OSNT"

// Version is the current format version written by this package. Version 2
// added the recording graph's delta-log version and content fingerprint to
// the header, so the serving layer can tell exactly which graph state a
// persisted trajectory replays — and top up stale ones incrementally.
// Version 3 stores each distinct node's friend list once instead of at
// every step. A version 2 file is refused like any unknown version; the
// serving engine counts it in store_errors and records the trajectory
// again.
const Version = 3

// Ext is the conventional file extension for trajectory files.
const Ext = ".osnt"

// headerSize is the fixed byte length of the v3 header.
const headerSize = 112

// maxSaneCount guards the reader's allocations against a corrupt or hostile
// header: no section may claim more than 2^35 elements, far beyond any
// trajectory this code records.
const maxSaneCount = 1 << 35

// maxSaneWalkers bounds the walker count a header may claim; fleets are
// sized to CPU cores, not millions.
const maxSaneWalkers = 1 << 20

// flagBudgetDriven marks a recording whose k was an API-call budget rather
// than a sample count.
const flagBudgetDriven = 1 << 0

// layout is the byte-level shape of one trajectory: the section counts the
// header carries plus the interned label store, computed once and shared by
// Encoding.Size and the write so the two can never disagree.
type layout struct {
	walkers        int
	totalSteps     int64
	listNodes      int64
	totalNeighbors int64
	// labelNodes holds the distinct referenced nodes that carry at least
	// one label, ascending; node i's label set is vals[labelOff[i]:
	// labelOff[i+1]], and refs[j] is vals[j]'s index into the sorted table.
	labelNodes []graph.Node
	labelOff   []uint32
	vals       []graph.Label
	table      []graph.Label
	refs       []uint32
}

// computeLayout scans t's distinct nodes once: section totals for the
// header, plus the interned label store covering every node the trajectory
// references. Each start and step node has its one friend list in the
// arena, so the list nodes and the arena's entries are every node a replay
// reads (a step's prev is its walker's previous node); one node set marks
// them and lists them in ascending order.
func computeLayout(t *core.Trajectory) layout {
	d := t.Data()
	lay := layout{
		walkers:        t.NumWalkers(),
		totalSteps:     int64(t.Samples()),
		listNodes:      int64(len(d.ListNode)),
		totalNeighbors: int64(len(d.Arena)),
		// The label offsets section always carries its leading 0, even for a
		// trajectory with no bound labels — ExpectedSize counts (L+1) offsets
		// unconditionally, and Write must agree with it byte for byte.
		labelOff: []uint32{0},
	}
	labels := t.Labels()
	if labels == nil {
		return lay
	}
	referenced := graph.NewNodeSet(t.NumNodes)
	n := 0
	for _, col := range [][]graph.Node{d.ListNode, d.Arena} {
		for _, u := range col {
			if referenced.Add(u) {
				n++
			}
		}
	}
	// index maps each distinct label to its place in the sorted table.
	index := make(map[graph.Label]uint32)
	nodes := referenced.AppendTo(make([]graph.Node, 0, n))
	lay.labelNodes = nodes[:0] // filtered in place: entry i is read before it is written
	for _, u := range nodes {
		ls := labels.Labels(u)
		if len(ls) == 0 {
			continue // unlabeled nodes are represented by absence
		}
		lay.labelNodes = append(lay.labelNodes, u)
		lay.vals = append(lay.vals, ls...)
		lay.labelOff = append(lay.labelOff, uint32(len(lay.vals)))
		for _, l := range ls {
			index[l] = 0
		}
	}
	lay.table = make([]graph.Label, 0, len(index))
	for l := range index {
		lay.table = append(lay.table, l)
	}
	slices.Sort(lay.table)
	for i, l := range lay.table {
		index[l] = uint32(i)
	}
	lay.refs = make([]uint32, len(lay.vals))
	for j, l := range lay.vals {
		lay.refs[j] = index[l]
	}
	return lay
}

// ExpectedSize returns the exact byte length of a v3 trajectory file with
// the given header counts. Exposed for tests and integrity tooling; the
// reader cross-checks it against the actual byte count before parsing.
func ExpectedSize(walkers, totalSteps, listNodes, totalNeighbors, labelNodes, labelTable, labelRefs uint64) int64 {
	return int64(headerSize) +
		int64(walkers)*8 + // per-walker calls
		int64(walkers)*4 + // per-walker step counts
		int64(walkers)*4 + // per-walker start nodes
		int64(listNodes)*12 + // node records (node, degree, nbrLen)
		int64(totalNeighbors)*4 + // the node records' friend lists
		int64(totalSteps)*8 + // step records (prev, node)
		int64(labelNodes)*4 + // labeled node IDs
		int64(labelNodes+1)*4 + // label offsets
		int64(labelTable)*4 + // label table
		int64(labelRefs)*4 + // label refs
		4 // CRC
}

// Encoding is a trajectory's .osnt layout: the section counts and the
// interned label store that writing the file encodes. Computing it is most
// of a write's cost, so a caller that needs the file's size before it
// writes the file (the serving engine weighs a fresh recording in its cache
// before persisting it) computes it once and hands it to Dir.Save. The
// trajectory must not change while its Encoding is in use.
type Encoding struct {
	t   *core.Trajectory
	lay layout
}

// Encode computes t's .osnt layout.
func Encode(t *core.Trajectory) *Encoding {
	e := &Encoding{t: t}
	if t != nil {
		e.lay = computeLayout(t)
	}
	return e
}

// Size returns the exact byte length of the encoded file; 0 for a nil
// trajectory. The serving layer uses it as the trajectory's cache weight, so
// the byte budget it enforces in memory equals the bytes the store holds on
// disk.
func (e *Encoding) Size() int64 {
	if e.t == nil {
		return 0
	}
	return e.lay.size()
}

// Detach binds t to the label store its .osnt file embeds, read once
// through t's current binding, and returns t's Encoding. A recording made
// through an upstream source reads its labels through the recording
// session, which holds that source and its response cache; detached, t
// holds only the label sets of the nodes it references, as a reload of its
// file would, except that the store has no O(|V|) lookup index. A
// trajectory without bound labels stays unbound.
func Detach(t *core.Trajectory) *Encoding {
	e := Encode(t)
	if t.Labels() != nil {
		// The clone drops the label values' append slack: the store lives as
		// long as the cached trajectory.
		t.BindLabels(&labelStore{nodes: e.lay.labelNodes, off: e.lay.labelOff, vals: slices.Clone(e.lay.vals)})
	}
	return e
}

// size is the exact byte length of the file lay describes.
func (lay *layout) size() int64 {
	return ExpectedSize(uint64(lay.walkers), uint64(lay.totalSteps), uint64(lay.listNodes), uint64(lay.totalNeighbors),
		uint64(len(lay.labelNodes)), uint64(len(lay.table)), uint64(len(lay.refs)))
}

// Write serializes t to w in .osnt format. The write streams through a
// buffered writer; memory overhead beyond the trajectory itself is the
// interned label store (one entry per distinct referenced node).
func Write(w io.Writer, t *core.Trajectory) error { return Encode(t).write(w) }

// write serializes e's trajectory to w.
func (e *Encoding) write(w io.Writer) error {
	t, lay := e.t, &e.lay
	if t == nil || t.NumWalkers() == 0 {
		return fmt.Errorf("store: cannot write an empty trajectory")
	}
	d := t.Data()
	if !t.HasStarts() || len(t.PerWalkerCalls) != t.NumWalkers() {
		return fmt.Errorf("store: trajectory has %d step streams but %d starts and %d per-walker bills",
			t.NumWalkers(), len(d.StartNode), len(t.PerWalkerCalls))
	}

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	var hdr [headerSize]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(lay.walkers))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(t.ThinGap))
	var flags uint32
	if t.BudgetDriven {
		flags |= flagBudgetDriven
	}
	binary.LittleEndian.PutUint32(hdr[16:20], flags)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(t.BurnIn))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(t.NumNodes))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(t.NumEdges))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(t.APICalls))
	binary.LittleEndian.PutUint64(hdr[48:56], uint64(lay.totalSteps))
	binary.LittleEndian.PutUint64(hdr[56:64], uint64(lay.listNodes))
	binary.LittleEndian.PutUint64(hdr[64:72], uint64(lay.totalNeighbors))
	binary.LittleEndian.PutUint64(hdr[72:80], uint64(len(lay.labelNodes)))
	binary.LittleEndian.PutUint64(hdr[80:88], uint64(len(lay.table)))
	binary.LittleEndian.PutUint64(hdr[88:96], uint64(len(lay.refs)))
	binary.LittleEndian.PutUint64(hdr[96:104], t.GraphVersion)
	binary.LittleEndian.PutUint64(hdr[104:112], t.GraphFingerprint)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}

	// The columns serialize without any row materialization: the arena
	// holds one friend list per list node, in ascending node order, which
	// is the node records' order.
	enc := encoder{w: bw}
	for _, calls := range t.PerWalkerCalls {
		enc.u64(uint64(calls))
	}
	W := t.NumWalkers()
	for wi := 0; wi < W; wi++ {
		enc.u32(uint32(t.WalkerLen(wi)))
	}
	enc.nodes(d.StartNode)
	for j, u := range d.ListNode {
		list := d.Arena[d.ListOff[j]:d.ListOff[j+1]]
		enc.u32(uint32(u))
		enc.u32(uint32(len(list)))
		enc.u32(uint32(len(list)))
		enc.nodes(list)
	}
	for i := range d.Prev {
		enc.u32(uint32(d.Prev[i]))
		enc.u32(uint32(d.Node[i]))
	}
	for _, u := range lay.labelNodes {
		enc.u32(uint32(u))
	}
	for _, off := range lay.labelOff {
		enc.u32(off)
	}
	for _, l := range lay.table {
		enc.u32(uint32(l))
	}
	for _, r := range lay.refs {
		enc.u32(r)
	}
	if enc.err != nil {
		return fmt.Errorf("store: writing trajectory sections: %w", enc.err)
	}

	// The CRC covers everything buffered so far; flush before reading it.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing payload: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("store: writing checksum: %w", err)
	}
	return nil
}

// Decode parses one complete .osnt byte image and reconstructs the
// trajectory, bound to the label store the file carries. Every count and
// node ID is validated before use, and the trailing CRC must match, so a
// truncated, bit-flipped or hostile image fails fast instead of replaying
// garbage. Every record must also be one a walk could have recorded: each
// node's friend list is as long as its record's degree and strictly
// increasing; the node records are in strictly ascending node order; every
// start and step node has one, and every listed node is a start or step
// node; and each step leaves from its walker's previous node (the start
// node, for its first step) to a node in that node's friend list. Load
// decodes files through it; the replication pull path decodes (and thereby
// verifies) a peer's bytes before admitting them to the local store.
//
// The image's length is checked against the header's section counts, and
// its CRC over the whole image, before any section is parsed; so each
// section parses as one loop over its bytes, writing the preallocated
// columns by index, and only a record's own list length needs a bound of its
// own. A start or a step finds its node's list through an index over the
// ascending list nodes. Decode copies everything it keeps and does not
// retain raw, so the caller may reuse the buffer.
func Decode(raw []byte) (*core.Trajectory, error) { return decode(raw, nil) }

// decode is Decode, except that a non-nil labels is bound in place of the
// label store the image carries. The label sections are then covered by
// the length and CRC checks but not parsed: a caller that rebinds a
// reloaded trajectory to its graph's labels would discard them, and they
// are over half of the image.
func decode(raw []byte, labels core.LabelReader) (*core.Trajectory, error) {
	if len(raw) < headerSize+4 {
		return nil, fmt.Errorf("store: %d bytes is too short for a .osnt file", len(raw))
	}
	hdr := raw[:headerSize]
	if string(hdr[0:4]) != Magic {
		return nil, fmt.Errorf("store: bad magic %q (not a .osnt file)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("store: unsupported format version %d (this build reads version %d)", v, Version)
	}
	walkers := binary.LittleEndian.Uint32(hdr[8:12])
	thinGap := binary.LittleEndian.Uint32(hdr[12:16])
	flags := binary.LittleEndian.Uint32(hdr[16:20])
	burnIn := binary.LittleEndian.Uint32(hdr[20:24])
	numNodes := binary.LittleEndian.Uint64(hdr[24:32])
	numEdges := binary.LittleEndian.Uint64(hdr[32:40])
	apiCalls := binary.LittleEndian.Uint64(hdr[40:48])
	totalSteps := binary.LittleEndian.Uint64(hdr[48:56])
	listNodes := binary.LittleEndian.Uint64(hdr[56:64])
	totalNeighbors := binary.LittleEndian.Uint64(hdr[64:72])
	labelNodes := binary.LittleEndian.Uint64(hdr[72:80])
	labelTable := binary.LittleEndian.Uint64(hdr[80:88])
	labelRefs := binary.LittleEndian.Uint64(hdr[88:96])
	graphVersion := binary.LittleEndian.Uint64(hdr[96:104])
	graphFP := binary.LittleEndian.Uint64(hdr[104:112])

	if walkers == 0 || walkers > maxSaneWalkers {
		return nil, fmt.Errorf("store: implausible walker count %d in header (corrupt file?)", walkers)
	}
	if numNodes > math.MaxInt32 {
		return nil, fmt.Errorf("store: %d nodes exceed the int32 node ID space", numNodes)
	}
	for _, c := range []uint64{numEdges, apiCalls, totalSteps, listNodes, totalNeighbors, labelNodes, labelTable, labelRefs} {
		if c > maxSaneCount {
			return nil, fmt.Errorf("store: implausible section size %d in header (corrupt file?)", c)
		}
	}
	switch {
	case listNodes > numNodes:
		return nil, fmt.Errorf("store: %d friend lists exceed the %d-node graph", listNodes, numNodes)
	case labelNodes > numNodes:
		return nil, fmt.Errorf("store: %d labeled nodes exceed the %d-node graph", labelNodes, numNodes)
	case labelRefs < labelNodes:
		return nil, fmt.Errorf("store: %d label refs cannot cover %d labeled nodes", labelRefs, labelNodes)
	}
	if want := ExpectedSize(uint64(walkers), totalSteps, listNodes, totalNeighbors, labelNodes, labelTable, labelRefs); int64(len(raw)) != want {
		return nil, fmt.Errorf("store: file is %d bytes, header implies %d (truncated or corrupt)", len(raw), want)
	}
	if got, want := crc32.ChecksumIEEE(raw[:len(raw)-4]), binary.LittleEndian.Uint32(raw[len(raw)-4:]); got != want {
		return nil, fmt.Errorf("store: checksum mismatch (file %08x, computed %08x): corrupt trajectory", want, got)
	}
	// body is exactly the sections the header counts: every fixed-size
	// section below is in bounds by the size check above.
	body := raw[headerSize : len(raw)-4]

	// Decode straight into the trajectory's columnar layout, carving the
	// columns of each element type out of one allocation: the whole decode
	// is a fixed number of allocations regardless of trajectory length
	// (pinned by TestLoadAllocsPerStep).
	W, S, M := int(walkers), int(totalSteps), int(listNodes)
	var data core.TrajectoryData
	i64 := make([]int64, W+(W+1)+(M+1))
	perCalls := carve(&i64, W)
	data.Ext = carve(&i64, W+1)
	data.ListOff = carve(&i64, M+1)
	i32 := make([]int32, 2*S+2*W)
	data.Degree, data.StepList = carve(&i32, S), carve(&i32, S)
	data.StartDegree, data.StartList = carve(&i32, W), carve(&i32, W)
	ids := make([]graph.Node, 2*S+W+M+int(totalNeighbors))
	data.Prev, data.Node = carve(&ids, S), carve(&ids, S)
	data.StartNode, data.ListNode = carve(&ids, W), carve(&ids, M)
	data.Arena = ids

	for i := range perCalls {
		perCalls[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
	}
	body = body[8*W:]
	for w := 0; w < W; w++ {
		data.Ext[w+1] = data.Ext[w] + int64(binary.LittleEndian.Uint32(body[4*w:]))
	}
	body = body[4*W:]
	if uint64(data.Ext[W]) != totalSteps {
		return nil, fmt.Errorf("store: per-walker step counts sum to %d, header says %d (corrupt file?)", data.Ext[W], totalSteps)
	}
	for w := 0; w < W; w++ {
		u := binary.LittleEndian.Uint32(body[4*w:])
		if uint64(u) >= numNodes {
			return nil, fmt.Errorf("store: start node ID %d out of range [0,%d)", u, numNodes)
		}
		data.StartNode[w] = graph.Node(u)
	}
	body = body[4*W:]

	// The node records: each start and step node once, in ascending order,
	// with its friend list.
	rr := records{buf: body, arena: data.Arena, numNodes: numNodes}
	for j := 0; j < M; j++ {
		rec := rr.next(12)
		u, degree, n := binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:]), binary.LittleEndian.Uint32(rec[8:])
		if uint64(u) >= numNodes {
			return nil, fmt.Errorf("store: listed node ID %d out of range [0,%d)", u, numNodes)
		}
		if j > 0 && graph.Node(u) <= data.ListNode[j-1] {
			if graph.Node(u) == data.ListNode[j-1] {
				return nil, fmt.Errorf("store: node %d is listed twice (corrupt file?)", u)
			}
			return nil, fmt.Errorf("store: node %d is listed out of order, after node %d (corrupt file?)", u, data.ListNode[j-1])
		}
		data.ListNode[j] = graph.Node(u)
		if err := rr.list(n, degree); err != nil {
			return nil, fmt.Errorf("store: node %d: %w", u, err)
		}
		data.ListOff[j+1] = int64(rr.fill)
	}
	if left := len(data.Arena) - rr.fill; left != 0 {
		return nil, fmt.Errorf("store: %d neighbor entries promised by the header were never consumed (corrupt file?)", left)
	}
	// stood marks the lists a walker stands on; each must be.
	stood := make([]bool, M)
	index := newListIndex(data.ListNode, numNodes)
	listOf := func(u graph.Node) (int32, []graph.Node, bool) {
		j, ok := index.find(u)
		if !ok {
			return 0, nil, false
		}
		stood[j] = true
		return int32(j), data.Arena[data.ListOff[j]:data.ListOff[j+1]], true
	}
	// Each step must leave from where its walker stands and move to a node
	// in that node's friend list, which the node records have checked
	// sorted.
	for w := 0; w < W; w++ {
		at := data.StartNode[w]
		j, atList, ok := listOf(at)
		if !ok {
			return nil, fmt.Errorf("store: walker %d starts at node %d, which has no friend list (corrupt file?)", w, at)
		}
		data.StartList[w], data.StartDegree[w] = j, int32(len(atList))
		for i := data.Ext[w]; i < data.Ext[w+1]; i++ {
			rec := rr.next(8)
			prev, node := binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:])
			if uint64(prev) >= numNodes {
				return nil, fmt.Errorf("store: step prev ID %d out of range [0,%d)", prev, numNodes)
			}
			if uint64(node) >= numNodes {
				return nil, fmt.Errorf("store: step node ID %d out of range [0,%d)", node, numNodes)
			}
			if graph.Node(prev) != at {
				return nil, fmt.Errorf("store: step %d leaves from node %d, but walker %d stands at %d (corrupt file?)", i, prev, w, at)
			}
			if _, ok := slices.BinarySearch(atList, graph.Node(node)); !ok {
				return nil, fmt.Errorf("store: step %d moves to node %d, which is not in node %d's friend list (corrupt file?)", i, node, prev)
			}
			at = graph.Node(node)
			if j, atList, ok = listOf(at); !ok {
				return nil, fmt.Errorf("store: step %d moves to node %d, which has no friend list (corrupt file?)", i, at)
			}
			data.Prev[i], data.Node[i] = graph.Node(prev), at
			data.StepList[i], data.Degree[i] = j, int32(len(atList))
		}
	}
	if j := slices.Index(stood, false); j >= 0 {
		return nil, fmt.Errorf("store: node %d has a friend list, but no walker stands on it (corrupt file?)", data.ListNode[j])
	}
	if labels == nil {
		ls, err := decodeLabels(body[rr.pos:], numNodes, labelNodes, labelTable, labelRefs)
		if err != nil {
			return nil, err
		}
		labels = ls
	}

	t := &core.Trajectory{
		Walkers:          W,
		APICalls:         int64(apiCalls),
		PerWalkerCalls:   perCalls,
		NumNodes:         int(numNodes),
		NumEdges:         int64(numEdges),
		ThinGap:          int(thinGap),
		BurnIn:           int(burnIn),
		BudgetDriven:     flags&flagBudgetDriven != 0,
		GraphVersion:     graphVersion,
		GraphFingerprint: graphFP,
	}
	if err := t.SetData(data); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	t.BindLabels(labels)
	return t, nil
}

// decodeLabels parses the label sections into a label store; body holds
// exactly those sections, their lengths being the header's counts.
func decodeLabels(body []byte, numNodes, labelNodes, labelTable, labelRefs uint64) (*labelStore, error) {
	L := int(labelNodes)
	ls := &labelStore{
		nodes: make([]graph.Node, L),
		off:   make([]uint32, L+1),
		vals:  make([]graph.Label, labelRefs),
	}
	if numNodes <= denseIndexMaxNodes {
		ls.indexNodes = int(numNodes)
	}
	last := int64(-1)
	for i := range ls.nodes {
		u := int64(binary.LittleEndian.Uint32(body[4*i:]))
		if u <= last {
			return nil, fmt.Errorf("store: labeled node IDs not strictly increasing at index %d (corrupt file?)", i)
		}
		last = u
		ls.nodes[i] = graph.Node(u)
	}
	// Strictly increasing IDs are in range when the last one is.
	if last >= int64(numNodes) {
		return nil, fmt.Errorf("store: labeled node ID %d out of range [0,%d)", last, numNodes)
	}
	body = body[4*L:]
	lastOff := uint32(0)
	for i := range ls.off {
		off := binary.LittleEndian.Uint32(body[4*i:])
		if off < lastOff {
			return nil, fmt.Errorf("store: label offsets decrease at index %d (corrupt file?)", i)
		}
		lastOff = off
		ls.off[i] = off
	}
	body = body[4*(L+1):]
	if ls.off[0] != 0 || uint64(ls.off[L]) != labelRefs {
		return nil, fmt.Errorf("store: label offsets span [%d,%d], refs section has %d (corrupt file?)",
			ls.off[0], ls.off[L], labelRefs)
	}
	// The refs index the table section in place.
	table := body[:4*labelTable]
	body = body[4*labelTable:]
	for i := range ls.vals {
		ref := binary.LittleEndian.Uint32(body[4*i:])
		if uint64(ref) >= labelTable {
			return nil, fmt.Errorf("store: label ref %d out of table range [0,%d)", ref, labelTable)
		}
		ls.vals[i] = graph.Label(binary.LittleEndian.Uint32(table[4*ref:]))
	}
	if rest := len(body) - 4*len(ls.vals); rest != 0 {
		return nil, fmt.Errorf("store: %d unparsed payload bytes (corrupt file?)", rest)
	}
	return ls, nil
}

// listIndex finds a node among the ascending list nodes of an image. It
// splits the node IDs [0, numNodes) into at most as many equal buckets as
// there are list nodes and keeps where each bucket's list nodes begin, so a
// lookup binary-searches one bucket, about one list node on average, in
// memory proportional to the list nodes rather than to the graph, whatever
// numNodes a header claims.
type listIndex struct {
	nodes []graph.Node
	shift uint
	// first[b] is the index of the first list node at or above b<<shift;
	// the last entry is len(nodes).
	first []int32
}

func newListIndex(nodes []graph.Node, numNodes uint64) listIndex {
	x := listIndex{nodes: nodes, shift: 63}
	top := max(numNodes, 1) - 1 // the highest node ID
	if len(nodes) > 0 {
		x.shift = uint(bits.Len64(top / uint64(len(nodes))))
	}
	buckets := int(top>>x.shift) + 1
	x.first = make([]int32, buckets+1)
	j := 0
	for b := range buckets {
		for j < len(nodes) && uint64(nodes[j])>>x.shift < uint64(b) {
			j++
		}
		x.first[b] = int32(j)
	}
	x.first[buckets] = int32(len(nodes))
	return x
}

// find returns u's index among the list nodes; u must be below numNodes.
func (x listIndex) find(u graph.Node) (int, bool) {
	b := uint64(u) >> x.shift
	lo, hi := int(x.first[b]), int(x.first[b+1])
	j, ok := slices.BinarySearch(x.nodes[lo:hi], u)
	return lo + j, ok
}

// carve cuts the first n elements off *buf as a column of its own, capped
// so that it cannot grow into the next one.
func carve[T any](buf *[]T, n int) []T {
	col := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return col
}

// records reads the node records and then the step records in file order,
// copying each friend list into the arena.
type records struct {
	buf      []byte // the record sections, from the first node record on
	pos      int    // read offset into buf
	arena    []graph.Node
	fill     int // arena entries filled so far
	numNodes uint64
}

// next returns the next n bytes of record header. The record sections hold
// one header per node and per step, and each list is bounded by the arena
// entries left, so a header read never passes the sections' end.
func (r *records) next(n int) []byte {
	rec := r.buf[r.pos : r.pos+n]
	r.pos += n
	return rec
}

// list copies the next n-entry friend list into the arena, refusing a list
// whose length is not its record's degree, that overruns the header's
// neighbor total, that holds an ID outside the graph, or that is not
// strictly increasing.
func (r *records) list(n, degree uint32) error {
	if n != degree {
		return fmt.Errorf("friend list of %d entries, but degree %d (corrupt file?)", n, degree)
	}
	if left := len(r.arena) - r.fill; uint64(n) > uint64(left) {
		return fmt.Errorf("neighbor list of %d entries exceeds the header's remaining total %d (corrupt file?)", n, left)
	}
	dst := r.arena[r.fill : r.fill+int(n)]
	src := r.buf[r.pos : r.pos+4*int(n)]
	last := int64(-1)
	for j := range dst {
		v := int64(binary.LittleEndian.Uint32(src[4*j:]))
		if v <= last {
			return fmt.Errorf("friend list not strictly increasing at entry %d (corrupt file?)", j)
		}
		last = v
		dst[j] = graph.Node(v)
	}
	// A strictly increasing list is in range when its last entry is.
	if last >= int64(r.numNodes) {
		return fmt.Errorf("neighbor ID %d out of range [0,%d)", last, r.numNodes)
	}
	r.pos += 4 * int(n)
	r.fill += int(n)
	return nil
}

// Save writes t to path through atomicfile.Write (temp file, fsync, rename,
// directory fsync), so a crash mid-write never leaves a truncated trajectory
// behind, a concurrent Load sees either the previous complete file or the
// new one, and the new file is durable when Save returns.
func Save(path string, t *core.Trajectory) error {
	return atomicfile.Write(path, func(w io.Writer) error { return Write(w, t) })
}

// Load reads the trajectory at path into a pooled buffer, sized from the
// open file's length, and decodes it. The decoder cross-checks the header's
// section sizes against the byte count before parsing, so a truncated or
// size-inconsistent file fails fast; and since it keeps no reference to the
// bytes, the buffer goes back to the pool for the next reload.
func Load(path string) (*core.Trajectory, error) { return load(path, nil) }

// load is Load, binding a non-nil labels in place of the file's (decode).
func load(path string, labels core.LabelReader) (*core.Trajectory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	if int64(cap(*bp)) < fi.Size() {
		*bp = make([]byte, fi.Size())
	}
	raw := (*bp)[:fi.Size()]
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	t, err := decode(raw, labels)
	if err != nil {
		return nil, fmt.Errorf("store: loading %s: %w", path, err)
	}
	return t, nil
}

// readBufs holds Load's read buffers. Reloads run on every evicted key's
// next request, and a pooled buffer turns each one's file-sized garbage
// into a reuse.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// denseIndexMaxNodes bounds the graphs for which a loaded label store
// builds its O(1) node → label-set index (4 bytes per graph node). Beyond
// it, lookups fall back to binary search over the referenced nodes.
const denseIndexMaxNodes = 1 << 24

// labelStore is the self-contained label surface a .osnt file carries: the
// label sets of every node the trajectory references, exactly as the
// recording session read them. It satisfies core.LabelReader, so a loaded
// trajectory replays through the estimation-task registry without the graph.
type labelStore struct {
	nodes []graph.Node // sorted distinct labeled nodes
	off   []uint32     // len(nodes)+1 offsets into vals
	vals  []graph.Label
	// indexNodes is the node count of the O(1) node → label-set index
	// (dense) that the first label read builds; 0 builds none, and reads
	// binary-search nodes. Label reads are the replay hot path (every
	// census/motif step consults several), so a loaded store indexes a
	// graph up to denseIndexMaxNodes nodes; built on first read, the index
	// costs nothing for a reload the serving engine rebinds to its graph's
	// labels before any replay. Detach leaves indexNodes 0, keeping an
	// O(|V|) array out of every cached upstream recording.
	indexNodes int
	indexOnce  sync.Once
	// dense maps node ID → index into nodes/off (-1 = unlabeled).
	dense []int32
}

// buildDense materializes the O(1) lookup table.
func (ls *labelStore) buildDense() {
	dense := make([]int32, ls.indexNodes)
	for i := range dense {
		dense[i] = -1
	}
	for i, u := range ls.nodes {
		dense[u] = int32(i)
	}
	ls.dense = dense
}

// find returns the index of u in the sorted node table, or -1.
func (ls *labelStore) find(u graph.Node) int {
	if ls.indexNodes > 0 {
		ls.indexOnce.Do(ls.buildDense)
		if int(u) >= len(ls.dense) || u < 0 {
			return -1
		}
		return int(ls.dense[u])
	}
	i := sort.Search(len(ls.nodes), func(j int) bool { return ls.nodes[j] >= u })
	if i < len(ls.nodes) && ls.nodes[i] == u {
		return i
	}
	return -1
}

// Labels returns u's stored label set; nodes absent from the store (or
// recorded unlabeled) return nil, matching the graph's convention.
func (ls *labelStore) Labels(u graph.Node) []graph.Label {
	i := ls.find(u)
	if i < 0 {
		return nil
	}
	return ls.vals[ls.off[i]:ls.off[i+1]]
}

// HasLabel reports whether u's stored label set contains l.
func (ls *labelStore) HasLabel(u graph.Node, l graph.Label) bool {
	for _, have := range ls.Labels(u) {
		if have == l {
			return true
		}
	}
	return false
}

// encoder writes little-endian words through a buffered writer, capturing
// the first error so call sites stay linear.
type encoder struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

func (e *encoder) u32(v uint32) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	_, e.err = e.w.Write(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	_, e.err = e.w.Write(e.buf[:8])
}

// nodes writes a neighbor list as u32 words.
func (e *encoder) nodes(ns []graph.Node) {
	for _, v := range ns {
		e.u32(uint32(v))
	}
}
