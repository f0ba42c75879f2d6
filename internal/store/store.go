// Package store implements the .osnt binary trajectory format and the
// directory layout the serving workspace persists trajectories into. A
// recorded random walk is the system's most expensive artifact — every step
// was paid for with a metered API call — and PRs 2–4 made one recording
// answer every estimation workload. This package makes that artifact survive
// process death: a trajectory saved as .osnt and loaded back replays to
// byte-equal estimates, so a restarted server answers previously cached
// queries with zero API spend.
//
// # Format (version 2)
//
// All integers are little-endian and unsigned on the wire. A file is a
// fixed header, the per-walker accounting arrays, one start and one step
// stream per walker, an interned label store, and a trailing CRC:
//
//	offset  size              field
//	0       4                 magic "OSNT"
//	4       4                 format version (2)
//	8       4                 walkers (W)
//	12      4                 HT thinning gap
//	16      4                 flags (bit 0: budget-driven recording)
//	20      4                 recording burn-in (steps paid before sampling)
//	24      8                 numNodes  (graph prior |V|)
//	32      8                 numEdges  (graph prior |E|)
//	40      8                 apiCalls  (total billed recording cost)
//	48      8                 totalSteps (S, summed across walkers)
//	56      8                 totalNeighbors (N, neighbor entries across all starts and steps)
//	64      8                 labelNodes (L, distinct labeled nodes referenced)
//	72      8                 labelTable (T, distinct label values)
//	80      8                 labelRefs  (R, total per-node label references)
//	88      8                 graphVersion (delta-log version of the recording graph)
//	96      8                 graphFingerprint (content hash of the recording graph)
//	104     W*8               per-walker billed calls
//	...     W*4               per-walker step counts
//	...     variable          W start records:  node, degree, nbrLen, nbrLen neighbors (u32 each)
//	...     variable          S step records:   prev, node, degree, nbrLen, nbrLen neighbors (u32 each), walker-major
//	...     L*4               labeled node IDs, sorted ascending
//	...     (L+1)*4           label offsets into the refs array
//	...     T*4               label table: sorted distinct label values
//	...     R*4               label refs: indices into the label table
//	...     4                 CRC-32 (IEEE) of everything before it
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
const Version = 2

// Ext is the conventional file extension for trajectory files.
const Ext = ".osnt"

// headerSize is the fixed byte length of the v2 header.
const headerSize = 104

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
// Write and EncodedSize so the two can never disagree.
type layout struct {
	walkers        int
	totalSteps     int64
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

// computeLayout scans t once: section totals for the header, plus the
// interned label store covering every node the trajectory references. Every
// neighbor list (starts and steps alike) lives in the shared arena, so the
// neighbor total is the arena length, and one node set marks the referenced
// nodes, listing them in ascending order.
func computeLayout(t *core.Trajectory) layout {
	d := t.Data()
	lay := layout{
		walkers:        t.NumWalkers(),
		totalSteps:     int64(t.Samples()),
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
	for _, col := range [][]graph.Node{d.StartNode, d.Prev, d.Node, d.Arena} {
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

// ExpectedSize returns the exact byte length of a v2 trajectory file with
// the given header counts. Exposed for tests and integrity tooling; the
// reader cross-checks it against the actual byte count before parsing.
func ExpectedSize(walkers, totalSteps, totalNeighbors, labelNodes, labelTable, labelRefs uint64) int64 {
	return int64(headerSize) +
		int64(walkers)*8 + // per-walker calls
		int64(walkers)*4 + // per-walker step counts
		int64(walkers)*12 + // start records (node, degree, nbrLen)
		int64(totalSteps)*16 + // step records (prev, node, degree, nbrLen)
		int64(totalNeighbors)*4 + // all neighbor entries (starts + steps)
		int64(labelNodes)*4 + // labeled node IDs
		int64(labelNodes+1)*4 + // label offsets
		int64(labelTable)*4 + // label table
		int64(labelRefs)*4 + // label refs
		4 // CRC
}

// EncodedSize returns the exact .osnt byte length Write would produce for t.
// The serving layer uses it as the trajectory's cache weight, so the byte
// budget it enforces in memory equals the bytes the store holds on disk.
func EncodedSize(t *core.Trajectory) int64 {
	if t == nil {
		return 0
	}
	lay := computeLayout(t)
	return lay.size()
}

// Detach binds t to the label store its .osnt file embeds, read once
// through t's current binding, and returns EncodedSize(t). A recording made
// through an upstream source reads its labels through the recording
// session, which holds that source and its response cache; detached, t
// holds only the label sets of the nodes it references, as a reload of its
// file would, except that the store has no O(|V|) lookup index. A
// trajectory without bound labels stays unbound.
func Detach(t *core.Trajectory) int64 {
	lay := computeLayout(t)
	if t.Labels() != nil {
		// The clone drops the label values' append slack: the store lives as
		// long as the cached trajectory.
		t.BindLabels(&labelStore{nodes: lay.labelNodes, off: lay.labelOff, vals: slices.Clone(lay.vals)})
	}
	return lay.size()
}

// size is the exact byte length of the file lay describes.
func (lay *layout) size() int64 {
	return ExpectedSize(uint64(lay.walkers), uint64(lay.totalSteps), uint64(lay.totalNeighbors),
		uint64(len(lay.labelNodes)), uint64(len(lay.table)), uint64(len(lay.refs)))
}

// Write serializes t to w in .osnt format. The write streams through a
// buffered writer; memory overhead beyond the trajectory itself is the
// interned label store (one entry per distinct referenced node).
func Write(w io.Writer, t *core.Trajectory) error {
	if t == nil || t.NumWalkers() == 0 {
		return fmt.Errorf("store: cannot write an empty trajectory")
	}
	d := t.Data()
	if !t.HasStarts() || len(t.PerWalkerCalls) != t.NumWalkers() {
		return fmt.Errorf("store: trajectory has %d step streams but %d starts and %d per-walker bills",
			t.NumWalkers(), len(d.StartNode), len(t.PerWalkerCalls))
	}
	lay := computeLayout(t)

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
	binary.LittleEndian.PutUint64(hdr[56:64], uint64(lay.totalNeighbors))
	binary.LittleEndian.PutUint64(hdr[64:72], uint64(len(lay.labelNodes)))
	binary.LittleEndian.PutUint64(hdr[72:80], uint64(len(lay.table)))
	binary.LittleEndian.PutUint64(hdr[80:88], uint64(len(lay.refs)))
	binary.LittleEndian.PutUint64(hdr[88:96], t.GraphVersion)
	binary.LittleEndian.PutUint64(hdr[96:104], t.GraphFingerprint)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}

	// The columns serialize without any row materialization: the arena holds
	// start lists first, then step lists in walker-major order — exactly the
	// file's record order — so every neighbor list is a contiguous subslice.
	enc := encoder{w: bw}
	for _, calls := range t.PerWalkerCalls {
		enc.u64(uint64(calls))
	}
	W := t.NumWalkers()
	for wi := 0; wi < W; wi++ {
		enc.u32(uint32(t.WalkerLen(wi)))
	}
	for wi := 0; wi < W; wi++ {
		enc.u32(uint32(d.StartNode[wi]))
		enc.u32(uint32(d.StartDegree[wi]))
		enc.u32(uint32(d.StartOff[wi+1] - d.StartOff[wi]))
		enc.nodes(d.Arena[d.StartOff[wi]:d.StartOff[wi+1]])
	}
	for i := 0; i < len(d.Prev); i++ {
		enc.u32(uint32(d.Prev[i]))
		enc.u32(uint32(d.Node[i]))
		enc.u32(uint32(d.Degree[i]))
		enc.u32(uint32(d.NbrOff[i+1] - d.NbrOff[i]))
		enc.nodes(d.Arena[d.NbrOff[i]:d.NbrOff[i+1]])
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
// friend list is as long as its record's degree and strictly increasing,
// and each step leaves from its walker's previous node (the start node, for
// its first step) to a node in that node's friend list. Load decodes files
// through it; the replication pull path decodes (and thereby verifies) a
// peer's bytes before admitting them to the local store.
//
// The image's length is checked against the header's section counts, and
// its CRC over the whole image, before any section is parsed; so each
// section parses as one loop over its bytes, writing the preallocated
// columns by index, and only a record's own list length needs a bound of its
// own. Decode copies everything it keeps and does not retain raw, so the
// caller may reuse the buffer.
func Decode(raw []byte) (*core.Trajectory, error) {
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
	totalNeighbors := binary.LittleEndian.Uint64(hdr[56:64])
	labelNodes := binary.LittleEndian.Uint64(hdr[64:72])
	labelTable := binary.LittleEndian.Uint64(hdr[72:80])
	labelRefs := binary.LittleEndian.Uint64(hdr[80:88])
	graphVersion := binary.LittleEndian.Uint64(hdr[88:96])
	graphFP := binary.LittleEndian.Uint64(hdr[96:104])

	if walkers == 0 || walkers > maxSaneWalkers {
		return nil, fmt.Errorf("store: implausible walker count %d in header (corrupt file?)", walkers)
	}
	if numNodes > math.MaxInt32 {
		return nil, fmt.Errorf("store: %d nodes exceed the int32 node ID space", numNodes)
	}
	for _, c := range []uint64{numEdges, apiCalls, totalSteps, totalNeighbors, labelNodes, labelTable, labelRefs} {
		if c > maxSaneCount {
			return nil, fmt.Errorf("store: implausible section size %d in header (corrupt file?)", c)
		}
	}
	if labelNodes > numNodes || labelRefs < labelNodes {
		if labelNodes > numNodes {
			return nil, fmt.Errorf("store: %d labeled nodes exceed the %d-node graph", labelNodes, numNodes)
		}
		return nil, fmt.Errorf("store: %d label refs cannot cover %d labeled nodes", labelRefs, labelNodes)
	}
	if want := ExpectedSize(uint64(walkers), totalSteps, totalNeighbors, labelNodes, labelTable, labelRefs); int64(len(raw)) != want {
		return nil, fmt.Errorf("store: file is %d bytes, header implies %d (truncated or corrupt)", len(raw), want)
	}
	if got, want := crc32.ChecksumIEEE(raw[:len(raw)-4]), binary.LittleEndian.Uint32(raw[len(raw)-4:]); got != want {
		return nil, fmt.Errorf("store: checksum mismatch (file %08x, computed %08x): corrupt trajectory", want, got)
	}
	// body is exactly the sections the header counts: every fixed-size
	// section below is in bounds by the size check above.
	body := raw[headerSize : len(raw)-4]

	W := int(walkers)
	perCalls := make([]int64, W)
	for i := range perCalls {
		perCalls[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
	}
	body = body[8*W:]
	ext := make([]int64, W+1)
	for w := 0; w < W; w++ {
		ext[w+1] = ext[w] + int64(binary.LittleEndian.Uint32(body[4*w:]))
	}
	body = body[4*W:]
	if uint64(ext[W]) != totalSteps {
		return nil, fmt.Errorf("store: per-walker step counts sum to %d, header says %d (corrupt file?)", ext[W], totalSteps)
	}

	// Decode straight into the trajectory's columnar layout: the file's
	// record order (start lists first, then step lists walker-major) IS the
	// arena order, so every list lands in one preallocated arena and the
	// whole decode is a fixed number of allocations regardless of trajectory
	// length (pinned by TestLoadAllocsPerStep).
	S := int(totalSteps)
	data := core.TrajectoryData{
		Ext:         ext,
		Prev:        make([]graph.Node, S),
		Node:        make([]graph.Node, S),
		Degree:      make([]int32, S),
		NbrOff:      make([]int64, S+1),
		StartNode:   make([]graph.Node, W),
		StartDegree: make([]int32, W),
		StartOff:    make([]int64, W+1),
		Arena:       make([]graph.Node, totalNeighbors),
	}
	rr := records{buf: body, arena: data.Arena, numNodes: numNodes}
	for w := 0; w < W; w++ {
		rec := rr.next(12)
		node, degree, n := binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:]), binary.LittleEndian.Uint32(rec[8:])
		if uint64(node) >= numNodes {
			return nil, fmt.Errorf("store: start node ID %d out of range [0,%d)", node, numNodes)
		}
		data.StartNode[w] = graph.Node(node)
		data.StartDegree[w] = int32(degree)
		data.StartOff[w] = int64(rr.fill)
		if _, err := rr.list(n, degree); err != nil {
			return nil, fmt.Errorf("store: start record %d: %w", w, err)
		}
	}
	data.StartOff[W] = int64(rr.fill)

	// Each step must leave from where its walker stands and move to a node
	// in that node's friend list, which the previous record (the start
	// record, for a walker's first step) has just checked sorted.
	for w := 0; w < W; w++ {
		at := data.StartNode[w]
		atList := data.Arena[data.StartOff[w]:data.StartOff[w+1]]
		for i := ext[w]; i < ext[w+1]; i++ {
			rec := rr.next(16)
			prev, node := binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:])
			degree, n := binary.LittleEndian.Uint32(rec[8:]), binary.LittleEndian.Uint32(rec[12:])
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
			data.Prev[i] = graph.Node(prev)
			data.Node[i] = graph.Node(node)
			data.Degree[i] = int32(degree)
			data.NbrOff[i] = int64(rr.fill)
			list, err := rr.list(n, degree)
			if err != nil {
				return nil, fmt.Errorf("store: step %d: %w", i, err)
			}
			at, atList = graph.Node(node), list
		}
	}
	data.NbrOff[S] = int64(rr.fill)
	if left := len(data.Arena) - rr.fill; left != 0 {
		return nil, fmt.Errorf("store: %d neighbor entries promised by the header were never consumed (corrupt file?)", left)
	}
	body = body[rr.pos:]

	L := int(labelNodes)
	ls := &labelStore{
		nodes: make([]graph.Node, L),
		off:   make([]uint32, L+1),
		vals:  make([]graph.Label, labelRefs),
	}
	if numNodes <= denseIndexMaxNodes {
		ls.indexNodes = int(numNodes)
	}
	for i := range ls.nodes {
		u := binary.LittleEndian.Uint32(body[4*i:])
		if uint64(u) >= numNodes {
			return nil, fmt.Errorf("store: labeled node ID %d out of range [0,%d)", u, numNodes)
		}
		if i > 0 && graph.Node(u) <= ls.nodes[i-1] {
			return nil, fmt.Errorf("store: labeled node IDs not strictly increasing at index %d (corrupt file?)", i)
		}
		ls.nodes[i] = graph.Node(u)
	}
	body = body[4*L:]
	for i := range ls.off {
		ls.off[i] = binary.LittleEndian.Uint32(body[4*i:])
		if i > 0 && ls.off[i] < ls.off[i-1] {
			return nil, fmt.Errorf("store: label offsets decrease at index %d (corrupt file?)", i)
		}
	}
	body = body[4*(L+1):]
	if ls.off[0] != 0 || uint64(ls.off[L]) != labelRefs {
		return nil, fmt.Errorf("store: label offsets span [%d,%d], refs section has %d (corrupt file?)",
			ls.off[0], ls.off[L], labelRefs)
	}
	table := make([]graph.Label, labelTable)
	for i := range table {
		table[i] = graph.Label(binary.LittleEndian.Uint32(body[4*i:]))
	}
	body = body[4*len(table):]
	for i := range ls.vals {
		ref := binary.LittleEndian.Uint32(body[4*i:])
		if uint64(ref) >= labelTable {
			return nil, fmt.Errorf("store: label ref %d out of table range [0,%d)", ref, labelTable)
		}
		ls.vals[i] = table[ref]
	}
	if rest := len(body) - 4*len(ls.vals); rest != 0 {
		return nil, fmt.Errorf("store: %d unparsed payload bytes (corrupt file?)", rest)
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
	t.BindLabels(ls)
	return t, nil
}

// records reads the start and step records in file order, copying each
// friend list into the arena.
type records struct {
	buf      []byte // the record sections, from the first start record on
	pos      int    // read offset into buf
	arena    []graph.Node
	fill     int // arena entries filled so far
	numNodes uint64
}

// next returns the next n bytes of record header. The record sections hold
// one header per start and per step, and each list is bounded by the arena
// entries left, so a header read never passes the sections' end.
func (r *records) next(n int) []byte {
	rec := r.buf[r.pos : r.pos+n]
	r.pos += n
	return rec
}

// list copies the next n-entry friend list into the arena and returns it,
// refusing a list whose length is not its record's degree, that overruns
// the header's neighbor total, that holds an ID outside the graph, or that
// is not strictly increasing.
func (r *records) list(n, degree uint32) ([]graph.Node, error) {
	if n != degree {
		return nil, fmt.Errorf("friend list of %d entries, but degree %d (corrupt file?)", n, degree)
	}
	if left := len(r.arena) - r.fill; uint64(n) > uint64(left) {
		return nil, fmt.Errorf("neighbor list of %d entries exceeds the header's remaining total %d (corrupt file?)", n, left)
	}
	dst := r.arena[r.fill : r.fill+int(n)]
	src := r.buf[r.pos : r.pos+4*int(n)]
	last := int64(-1)
	for j := range dst {
		v := binary.LittleEndian.Uint32(src[4*j:])
		if uint64(v) >= r.numNodes {
			return nil, fmt.Errorf("neighbor ID %d out of range [0,%d)", v, r.numNodes)
		}
		if int64(v) <= last {
			return nil, fmt.Errorf("friend list not strictly increasing at entry %d (corrupt file?)", j)
		}
		last = int64(v)
		dst[j] = graph.Node(v)
	}
	r.pos += 4 * int(n)
	r.fill += int(n)
	return dst, nil
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
func Load(path string) (*core.Trajectory, error) {
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
	t, err := Decode(raw)
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
