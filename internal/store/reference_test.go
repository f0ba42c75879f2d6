package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// This file keeps the word-at-a-time .osnt decoder that Decode replaced, as
// the reference FuzzDecode compares Decode against: whatever Decode accepts,
// referenceDecode must accept with equal header fields, columns and label
// reads. referenceDecode checks ranges, counts, label order and the CRC, but
// not the per-record checks Decode adds (list length against degree, sorted
// lists, the prev chain and step adjacency), so it may accept more.

// referenceDecode parses a .osnt image through a bounds-checked cursor, one
// word per call, and binds the result to an eagerly indexed label store.
func referenceDecode(raw []byte) (*core.Trajectory, error) {
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
	dec := &refCursor{buf: raw[headerSize : len(raw)-4]}

	checkNode := func(u uint32, what string) (graph.Node, error) {
		if uint64(u) >= numNodes {
			return 0, fmt.Errorf("store: %s ID %d out of range [0,%d)", what, u, numNodes)
		}
		return graph.Node(u), nil
	}

	W := int(walkers)
	perCalls := make([]int64, W)
	for i := range perCalls {
		perCalls[i] = int64(dec.u64())
	}
	stepCounts := make([]uint32, W)
	var sumSteps uint64
	for i := range stepCounts {
		stepCounts[i] = dec.u32()
		sumSteps += uint64(stepCounts[i])
	}
	if dec.err != nil {
		return nil, fmt.Errorf("store: reading accounting sections: %w", dec.err)
	}
	if sumSteps != totalSteps {
		return nil, fmt.Errorf("store: per-walker step counts sum to %d, header says %d (corrupt file?)", sumSteps, totalSteps)
	}

	// Decode straight into the trajectory's columnar layout: the file's
	// record order (start lists first, then step lists walker-major) IS the
	// arena order, so every neighbor entry appends to one preallocated arena
	// and the whole decode is a fixed number of allocations regardless of
	// trajectory length (pinned by TestLoadAllocsPerStep).
	S := int(totalSteps)
	data := core.TrajectoryData{
		Ext:         make([]int64, W+1),
		Prev:        make([]graph.Node, S),
		Node:        make([]graph.Node, S),
		Degree:      make([]int32, S),
		NbrOff:      make([]int64, S+1),
		StartNode:   make([]graph.Node, W),
		StartDegree: make([]int32, W),
		StartOff:    make([]int64, W+1),
		Arena:       make([]graph.Node, 0, totalNeighbors),
	}
	for w := 0; w < W; w++ {
		data.Ext[w+1] = data.Ext[w] + int64(stepCounts[w])
	}

	// neighborsLeft caps arena appends by the header's global total, so a
	// corrupt per-record length cannot overrun the preallocated arena.
	neighborsLeft := totalNeighbors
	readNeighbors := func(n uint32) error {
		if uint64(n) > neighborsLeft {
			return fmt.Errorf("store: neighbor list of %d entries exceeds the header's remaining total %d (corrupt file?)", n, neighborsLeft)
		}
		neighborsLeft -= uint64(n)
		for i := uint32(0); i < n; i++ {
			v, err := checkNode(dec.u32(), "neighbor")
			if err != nil {
				return err
			}
			data.Arena = append(data.Arena, v)
		}
		return nil
	}

	for w := 0; w < W; w++ {
		node, err := checkNode(dec.u32(), "start node")
		if err != nil {
			return nil, err
		}
		degree := dec.u32()
		nbrLen := dec.u32()
		if dec.err != nil {
			return nil, fmt.Errorf("store: reading start record %d: %w", w, dec.err)
		}
		data.StartNode[w] = node
		data.StartDegree[w] = int32(degree)
		data.StartOff[w] = int64(len(data.Arena))
		if err := readNeighbors(nbrLen); err != nil {
			return nil, err
		}
	}
	data.StartOff[W] = int64(len(data.Arena))

	for i := 0; i < S; i++ {
		prev, err := checkNode(dec.u32(), "step prev")
		if err != nil {
			return nil, err
		}
		node, err := checkNode(dec.u32(), "step node")
		if err != nil {
			return nil, err
		}
		degree := dec.u32()
		nbrLen := dec.u32()
		if dec.err != nil {
			return nil, fmt.Errorf("store: reading step %d: %w", i, dec.err)
		}
		data.Prev[i] = prev
		data.Node[i] = node
		data.Degree[i] = int32(degree)
		data.NbrOff[i] = int64(len(data.Arena))
		if err := readNeighbors(nbrLen); err != nil {
			return nil, err
		}
	}
	data.NbrOff[S] = int64(len(data.Arena))
	if neighborsLeft != 0 {
		return nil, fmt.Errorf("store: %d neighbor entries promised by the header were never consumed (corrupt file?)", neighborsLeft)
	}

	ls := &refLabelStore{
		nodes: make([]graph.Node, labelNodes),
		off:   make([]uint32, labelNodes+1),
		vals:  make([]graph.Label, labelRefs),
	}
	for i := range ls.nodes {
		u, err := checkNode(dec.u32(), "labeled node")
		if err != nil {
			return nil, err
		}
		if i > 0 && u <= ls.nodes[i-1] {
			return nil, fmt.Errorf("store: labeled node IDs not strictly increasing at index %d (corrupt file?)", i)
		}
		ls.nodes[i] = u
	}
	for i := range ls.off {
		ls.off[i] = dec.u32()
		if i > 0 && ls.off[i] < ls.off[i-1] {
			return nil, fmt.Errorf("store: label offsets decrease at index %d (corrupt file?)", i)
		}
	}
	if dec.err == nil && (ls.off[0] != 0 || uint64(ls.off[labelNodes]) != labelRefs) {
		return nil, fmt.Errorf("store: label offsets span [%d,%d], refs section has %d (corrupt file?)",
			ls.off[0], ls.off[labelNodes], labelRefs)
	}
	table := make([]graph.Label, labelTable)
	for i := range table {
		table[i] = graph.Label(dec.u32())
	}
	for i := range ls.vals {
		ref := dec.u32()
		if dec.err != nil {
			break
		}
		if uint64(ref) >= labelTable {
			return nil, fmt.Errorf("store: label ref %d out of table range [0,%d)", ref, labelTable)
		}
		ls.vals[i] = table[ref]
	}
	if dec.err != nil {
		return nil, fmt.Errorf("store: reading label sections: %w", dec.err)
	}
	if dec.off != len(dec.buf) {
		return nil, fmt.Errorf("store: %d unparsed payload bytes (corrupt file?)", len(dec.buf)-dec.off)
	}
	ls.buildDense(int(numNodes))

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

// refDenseIndexMaxNodes bounds the graphs for which refLabelStore builds
// its node → label-set index at decode time.
const refDenseIndexMaxNodes = 1 << 24

// refLabelStore is the label store the reference decoder binds: the same
// sections as labelStore, with the O(|V|) index built eagerly.
type refLabelStore struct {
	nodes []graph.Node // sorted distinct labeled nodes
	off   []uint32     // len(nodes)+1 offsets into vals
	vals  []graph.Label
	// dense maps node ID → index into nodes/off (-1 = unlabeled); nil past
	// refDenseIndexMaxNodes, where lookups binary-search nodes.
	dense []int32
}

// buildDense materializes the O(1) lookup table when affordable.
func (ls *refLabelStore) buildDense(numNodes int) {
	if numNodes > refDenseIndexMaxNodes {
		return
	}
	ls.dense = make([]int32, numNodes)
	for i := range ls.dense {
		ls.dense[i] = -1
	}
	for i, u := range ls.nodes {
		ls.dense[u] = int32(i)
	}
}

// find returns the index of u in the sorted node table, or -1.
func (ls *refLabelStore) find(u graph.Node) int {
	if ls.dense != nil {
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
func (ls *refLabelStore) Labels(u graph.Node) []graph.Label {
	i := ls.find(u)
	if i < 0 {
		return nil
	}
	return ls.vals[ls.off[i]:ls.off[i+1]]
}

// HasLabel reports whether u's stored label set contains l.
func (ls *refLabelStore) HasLabel(u graph.Node, l graph.Label) bool {
	for _, have := range ls.Labels(u) {
		if have == l {
			return true
		}
	}
	return false
}

// refCursor reads little-endian words straight out of an in-memory payload;
// the first out-of-bounds read sticks as an error. The checksum was already
// verified over the whole buffer, so reads are plain slice indexing.
type refCursor struct {
	buf []byte
	off int
	err error
}

func (c *refCursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.buf) {
		c.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v
}

func (c *refCursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.buf) {
		c.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v
}
