// Package snapshot implements the .osnb binary snapshot format: a
// versioned, checksummed serialization of the CSR graph representation that
// loads in O(file size) with a handful of large allocations — the
// preprocess-once / query-many split that lets the tools operate on
// million-node graphs without re-parsing text edge lists.
//
// # Format (version 2)
//
// All integers are little-endian and unsigned on the wire. A file is a
// fixed header, five array sections, and a trailing CRC:
//
//	offset  size              field
//	0       4                 magic "OSNB"
//	4       4                 format version (2)
//	8       8                 numNodes  (n)
//	16      8                 numEdges  (m, undirected count)
//	24      8                 numLabels (distinct label table size, t)
//	32      8                 labelRefs (total per-node label references, r)
//	40      8                 graphVersion (delta-log version of the graph)
//	48      (n+1)*8           node offsets     off[0..n],      off[n] = 2m
//	...     2m*4              adjacency        adj, neighbor lists sorted per node
//	...     (n+1)*4           label offsets    labelOff[0..n], labelOff[n] = r
//	...     t*4               label table      sorted distinct label values
//	...     r*4               label refs       indices into the label table
//	...     4                 CRC-32 (IEEE) of everything before it
//
// Version 2 added graphVersion: a snapshot of a mutated graph records which
// delta-log version its CSR arrays flatten (see graph.ApplyDelta). Beside a
// base .osnb, later deltas persist as .osnd segments (see DeltaExt) that
// Load replays in version order.
//
// Node labels are interned: the file stores each distinct label value once
// in a sorted table and per-node label sets as table indices, so label-heavy
// graphs (e.g. degree-as-label datasets) stay compact and a loader can
// enumerate the label vocabulary without scanning per-node data.
//
// Version bumps are semantic: a reader rejects any version it does not know
// (no silent best-effort parsing), and any layout change — new section,
// different width, different meaning — requires a new version number.
// Appending sections is not backward compatible by design: the trailing CRC
// pins the exact byte span of a version's layout.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/atomicfile"
	"repro/internal/graph"
)

// Magic identifies a .osnb file; the first four bytes of every snapshot.
const Magic = "OSNB"

// Version is the current format version written by this package.
const Version = 2

// Ext is the conventional file extension for snapshot files.
const Ext = ".osnb"

// headerSize is the fixed byte length of the v2 header.
const headerSize = 4 + 4 + 8 + 8 + 8 + 8 + 8

// maxSaneCount guards the reader's allocations against a corrupt or hostile
// header: no v1 section may claim more than 2^35 elements (128+ GiB of
// payload), far beyond any graph this code targets.
const maxSaneCount = 1 << 35

// chunkSize is the scratch-buffer size for bulk array encode/decode. One
// buffer of this size is the only non-result allocation on the load path.
const chunkSize = 1 << 20

// Write serializes g to w in .osnb format. The write streams section by
// section through a fixed-size buffer, so memory overhead is O(1) beyond the
// graph itself.
func Write(w io.Writer, g *graph.Graph) error {
	off, adj, labelOff, labelVal := g.CSR()
	n := g.NumNodes()

	table, refs := internLabels(labelVal)

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	var hdr [headerSize]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumEdges()))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(table)))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(refs)))
	binary.LittleEndian.PutUint64(hdr[40:48], g.Version())
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}

	scratch := make([]byte, chunkSize)
	if err := write64s(bw, off, scratch); err != nil {
		return fmt.Errorf("snapshot: writing node offsets: %w", err)
	}
	if err := write32s(bw, adj, scratch); err != nil {
		return fmt.Errorf("snapshot: writing adjacency: %w", err)
	}
	if err := write32s(bw, labelOff, scratch); err != nil {
		return fmt.Errorf("snapshot: writing label offsets: %w", err)
	}
	if err := write32s(bw, table, scratch); err != nil {
		return fmt.Errorf("snapshot: writing label table: %w", err)
	}
	if err := write32s(bw, refs, scratch); err != nil {
		return fmt.Errorf("snapshot: writing label refs: %w", err)
	}

	// The CRC covers everything buffered so far; flush before reading it.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: flushing payload: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("snapshot: writing checksum: %w", err)
	}
	return nil
}

// Read parses a .osnb stream and reconstructs the graph. The load is
// O(stream length): each section is read in bulk into its final array
// through one reusable scratch buffer, and the graph adopts the arrays
// without copying (see graph.NewFromCSR).
func Read(r io.Reader) (*graph.Graph, error) {
	crc := crc32.NewIEEE()
	cr := &crcReader{r: bufio.NewReaderSize(r, 1<<16), h: crc}

	var hdr [headerSize]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if string(hdr[0:4]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a .osnb file)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads version %d)", v, Version)
	}
	numNodes := binary.LittleEndian.Uint64(hdr[8:16])
	numEdges := binary.LittleEndian.Uint64(hdr[16:24])
	numLabels := binary.LittleEndian.Uint64(hdr[24:32])
	labelRefs := binary.LittleEndian.Uint64(hdr[32:40])
	graphVersion := binary.LittleEndian.Uint64(hdr[40:48])
	if numNodes > math.MaxInt32 {
		return nil, fmt.Errorf("snapshot: %d nodes exceed the int32 node ID space", numNodes)
	}
	for _, c := range []uint64{numEdges, numLabels, labelRefs} {
		if c > maxSaneCount {
			return nil, fmt.Errorf("snapshot: implausible section size %d in header (corrupt file?)", c)
		}
	}

	scratch := make([]byte, chunkSize)

	off, err := read64s(cr, int(numNodes)+1, scratch)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading node offsets: %w", err)
	}
	adj, err := read32s[graph.Node](cr, 2*int(numEdges), scratch)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading adjacency: %w", err)
	}
	labelOff, err := read32s[int32](cr, int(numNodes)+1, scratch)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading label offsets: %w", err)
	}
	table, err := read32s[graph.Label](cr, int(numLabels), scratch)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading label table: %w", err)
	}
	refs, err := read32s[uint32](cr, int(labelRefs), scratch)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading label refs: %w", err)
	}

	var tail [4]byte
	sum := crc.Sum32() // everything read so far, header included
	if _, err := io.ReadFull(cr.r, tail[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading checksum: %w", err)
	}
	if want := binary.LittleEndian.Uint32(tail[:]); want != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch (file %08x, computed %08x): corrupt snapshot", want, sum)
	}

	// The checksum proves the bytes are what the producer wrote, not that
	// the producer wrote sense: range-check every neighbor ID so a
	// malformed third-party snapshot fails here instead of panicking deep
	// inside an estimator. (Also catches IDs >= 2^31, which the uint32 →
	// int32 decode turns negative.)
	for _, v := range adj {
		if v < 0 || uint64(v) >= numNodes {
			return nil, fmt.Errorf("snapshot: neighbor ID %d out of range [0,%d)", v, numNodes)
		}
	}

	// Resolve interned label refs back to label values in place-adjacent
	// storage.
	labelVal := make([]graph.Label, len(refs))
	for i, ref := range refs {
		if int(ref) >= len(table) {
			return nil, fmt.Errorf("snapshot: label ref %d out of table range [0,%d)", ref, len(table))
		}
		labelVal[i] = table[ref]
	}

	g, err := graph.NewFromCSR(off, adj, labelOff, labelVal)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	g.SetVersion(graphVersion)
	return g, nil
}

// Save writes g to path through atomicfile.Write (temp file, fsync, rename,
// directory fsync), so a crash mid-write never leaves a truncated snapshot
// behind and the new file is durable when Save returns.
func Save(path string, g *graph.Graph) error {
	return atomicfile.Write(path, func(w io.Writer) error { return Write(w, g) })
}

// Load reads the snapshot at path and replays any .osnd delta segments
// found beside it in version order (see applySegments), returning the graph
// at its latest persisted version. Before allocating anything it
// cross-checks the header's section sizes against the file's actual size,
// so a truncated or size-inconsistent file fails fast.
func Load(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()

	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading header of %s: %w", path, err)
	}
	if string(hdr[0:4]) == Magic && binary.LittleEndian.Uint32(hdr[4:8]) == Version {
		st, err := f.Stat()
		if err != nil {
			return nil, fmt.Errorf("snapshot: stat %s: %w", path, err)
		}
		want := ExpectedSize(
			binary.LittleEndian.Uint64(hdr[8:16]),
			binary.LittleEndian.Uint64(hdr[16:24]),
			binary.LittleEndian.Uint64(hdr[24:32]),
			binary.LittleEndian.Uint64(hdr[32:40]),
		)
		if st.Size() != want {
			return nil, fmt.Errorf("snapshot: %s is %d bytes, header implies %d (truncated or corrupt)", path, st.Size(), want)
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("snapshot: rewinding %s: %w", path, err)
	}
	g, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot: loading %s: %w", path, err)
	}
	return applySegments(path, g)
}

// ExpectedSize returns the exact byte length of a v2 snapshot with the
// given header counts. Exposed for tests and integrity tooling.
func ExpectedSize(numNodes, numEdges, numLabels, labelRefs uint64) int64 {
	return int64(headerSize) +
		int64(numNodes+1)*8 + // node offsets
		int64(2*numEdges)*4 + // adjacency
		int64(numNodes+1)*4 + // label offsets
		int64(numLabels)*4 + // label table
		int64(labelRefs)*4 + // label refs
		4 // CRC
}

// internLabels builds the sorted distinct-label table and rewrites the flat
// label array as indices into it.
func internLabels(labelVal []graph.Label) ([]graph.Label, []uint32) {
	if len(labelVal) == 0 {
		return nil, nil
	}
	table := append([]graph.Label(nil), labelVal...)
	sort.Slice(table, func(i, j int) bool { return table[i] < table[j] })
	uniq := table[:1]
	for _, l := range table[1:] {
		if l != uniq[len(uniq)-1] {
			uniq = append(uniq, l)
		}
	}
	table = uniq
	refs := make([]uint32, len(labelVal))
	for i, l := range labelVal {
		refs[i] = uint32(sort.Search(len(table), func(j int) bool { return table[j] >= l }))
	}
	return table, refs
}

// crcReader feeds every byte it relays into the running checksum.
type crcReader struct {
	r io.Reader
	h hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.h.Write(p[:n])
	}
	return n, err
}

// The bulk encode/decode helpers below stream fixed-width integer arrays
// through a shared scratch buffer, so the only allocations on the load path
// are the result arrays themselves.

// write64s encodes vals as little-endian uint64 words.
func write64s(w io.Writer, vals []int64, scratch []byte) error {
	for len(vals) > 0 {
		n := len(vals)
		if n > len(scratch)/8 {
			n = len(scratch) / 8
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(scratch[i*8:], uint64(vals[i]))
		}
		if _, err := w.Write(scratch[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// write32s encodes vals as little-endian uint32 words.
func write32s[T ~int32 | ~uint32](w io.Writer, vals []T, scratch []byte) error {
	for len(vals) > 0 {
		n := len(vals)
		if n > len(scratch)/4 {
			n = len(scratch) / 4
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[i*4:], uint32(vals[i]))
		}
		if _, err := w.Write(scratch[:n*4]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// read64s decodes count little-endian uint64 words.
func read64s(r io.Reader, count int, scratch []byte) ([]int64, error) {
	out := make([]int64, count)
	for done := 0; done < count; {
		n := count - done
		if n > len(scratch)/8 {
			n = len(scratch) / 8
		}
		if _, err := io.ReadFull(r, scratch[:n*8]); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out[done+i] = int64(binary.LittleEndian.Uint64(scratch[i*8:]))
		}
		done += n
	}
	return out, nil
}

// read32s decodes count little-endian uint32 words into the element type.
func read32s[T ~int32 | ~uint32](r io.Reader, count int, scratch []byte) ([]T, error) {
	out := make([]T, count)
	for done := 0; done < count; {
		n := count - done
		if n > len(scratch)/4 {
			n = len(scratch) / 4
		}
		if _, err := io.ReadFull(r, scratch[:n*4]); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out[done+i] = T(binary.LittleEndian.Uint32(scratch[i*4:]))
		}
		done += n
	}
	return out, nil
}
