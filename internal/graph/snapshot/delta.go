package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/graph"
)

// A .osnd delta segment persists one applied graph.Delta beside its .osnb
// base, so a mutated graph is durable without rewriting the whole snapshot.
// The wire layout mirrors the .osnb discipline (little-endian, fixed header,
// trailing CRC-32):
//
//	offset  size       field
//	0       4          magic "OSND"
//	4       4          format version (1)
//	8       8          numNodes (of the graph the delta applies to)
//	16      8          parentVersion (graph version the delta applies to)
//	24      8          parentFP  (graph.Fingerprint of the parent)
//	32      8          resultFP  (graph.Fingerprint after applying)
//	40      8          numAdds (a)
//	48      8          numDels (d)
//	56      a*8        added edges, two uint32 endpoints each
//	...     d*8        deleted edges, two uint32 endpoints each
//	...     4          CRC-32 (IEEE) of everything before it
//
// A segment for result version V is named <base>.dV.osnd next to the
// <base>.osnb it extends (see DeltaPath). Load replays segments in version
// order, verifying both fingerprints, and skips segments at or below the
// base's version — the leftovers of a compaction that crashed between
// rewriting the base and unlinking its segments.
const (
	// DeltaMagic identifies a .osnd segment file.
	DeltaMagic = "OSND"
	// DeltaVersion is the current .osnd format version.
	DeltaVersion = 1
	// DeltaExt is the file extension of delta segments.
	DeltaExt = ".osnd"
	// deltaHeaderSize is the fixed byte length of the .osnd header.
	deltaHeaderSize = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8
)

// DeltaHeader carries a segment's metadata: which graph it applies to and
// what it must produce.
type DeltaHeader struct {
	// NumNodes is |V| of the graph the delta applies to (deltas never add
	// or remove nodes).
	NumNodes int
	// ParentVersion is the graph version the delta applies to; applying it
	// yields ParentVersion+1.
	ParentVersion uint64
	// ParentFP is the content fingerprint the parent graph must have.
	ParentFP uint64
	// ResultFP is the content fingerprint the patched graph must have.
	ResultFP uint64
}

// WriteDelta serializes one delta segment to w.
func WriteDelta(w io.Writer, d graph.Delta, h DeltaHeader) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	var hdr [deltaHeaderSize]byte
	copy(hdr[0:4], DeltaMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], DeltaVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(h.NumNodes))
	binary.LittleEndian.PutUint64(hdr[16:24], h.ParentVersion)
	binary.LittleEndian.PutUint64(hdr[24:32], h.ParentFP)
	binary.LittleEndian.PutUint64(hdr[32:40], h.ResultFP)
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(len(d.Adds)))
	binary.LittleEndian.PutUint64(hdr[48:56], uint64(len(d.Dels)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: writing delta header: %w", err)
	}
	var pair [8]byte
	writeEdges := func(es []graph.Edge) error {
		for _, e := range es {
			binary.LittleEndian.PutUint32(pair[0:4], uint32(e.U))
			binary.LittleEndian.PutUint32(pair[4:8], uint32(e.V))
			if _, err := bw.Write(pair[:]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeEdges(d.Adds); err != nil {
		return fmt.Errorf("snapshot: writing delta adds: %w", err)
	}
	if err := writeEdges(d.Dels); err != nil {
		return fmt.Errorf("snapshot: writing delta dels: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: flushing delta payload: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("snapshot: writing delta checksum: %w", err)
	}
	return nil
}

// ReadDelta parses one delta segment. The segment is read whole, and its
// length must equal the size the header's edge counts imply before any edge
// array is sized from them, so a corrupt count fails fast instead of
// allocating for edges the segment does not hold. Then the checksum is
// verified and every edge endpoint range-checked against the header's node
// count.
func ReadDelta(r io.Reader) (graph.Delta, DeltaHeader, error) {
	var d graph.Delta
	var h DeltaHeader
	raw, err := io.ReadAll(r)
	if err != nil {
		return d, h, fmt.Errorf("snapshot: reading delta segment: %w", err)
	}
	if len(raw) < deltaHeaderSize {
		return d, h, fmt.Errorf("snapshot: %d bytes is too short for a .osnd header", len(raw))
	}
	hdr := raw[:deltaHeaderSize]
	if string(hdr[0:4]) != DeltaMagic {
		return d, h, fmt.Errorf("snapshot: bad magic %q (not a .osnd file)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != DeltaVersion {
		return d, h, fmt.Errorf("snapshot: unsupported delta format version %d (this build reads version %d)", v, DeltaVersion)
	}
	numNodes := binary.LittleEndian.Uint64(hdr[8:16])
	h.ParentVersion = binary.LittleEndian.Uint64(hdr[16:24])
	h.ParentFP = binary.LittleEndian.Uint64(hdr[24:32])
	h.ResultFP = binary.LittleEndian.Uint64(hdr[32:40])
	numAdds := binary.LittleEndian.Uint64(hdr[40:48])
	numDels := binary.LittleEndian.Uint64(hdr[48:56])
	if numNodes > math.MaxInt32 {
		return d, h, fmt.Errorf("snapshot: delta claims %d nodes, exceeding the int32 node ID space", numNodes)
	}
	if numAdds > maxSaneCount || numDels > maxSaneCount {
		return d, h, fmt.Errorf("snapshot: implausible delta edge count (%d adds, %d dels): corrupt segment?", numAdds, numDels)
	}
	h.NumNodes = int(numNodes)
	if want := deltaHeaderSize + int64(numAdds+numDels)*8 + 4; int64(len(raw)) != want {
		return d, h, fmt.Errorf("snapshot: delta segment is %d bytes, header implies %d (truncated or corrupt)", len(raw), want)
	}
	if got, want := crc32.ChecksumIEEE(raw[:len(raw)-4]), binary.LittleEndian.Uint32(raw[len(raw)-4:]); got != want {
		return d, h, fmt.Errorf("snapshot: delta checksum mismatch (file %08x, computed %08x): corrupt segment", want, got)
	}

	payload := raw[deltaHeaderSize : len(raw)-4]
	readEdges := func(count uint64) ([]graph.Edge, error) {
		if count == 0 {
			return nil, nil
		}
		es := make([]graph.Edge, count)
		for i := range es {
			u := binary.LittleEndian.Uint32(payload[0:4])
			v := binary.LittleEndian.Uint32(payload[4:8])
			payload = payload[8:]
			if uint64(u) >= numNodes || uint64(v) >= numNodes {
				return nil, fmt.Errorf("edge endpoint (%d,%d) out of range [0,%d)", u, v, numNodes)
			}
			es[i] = graph.Edge{U: graph.Node(u), V: graph.Node(v)}
		}
		return es, nil
	}
	if d.Adds, err = readEdges(numAdds); err != nil {
		return d, h, fmt.Errorf("snapshot: reading delta adds: %w", err)
	}
	if d.Dels, err = readEdges(numDels); err != nil {
		return d, h, fmt.Errorf("snapshot: reading delta dels: %w", err)
	}
	return d, h, nil
}

// DeltaPath returns the path of the segment producing resultVersion from the
// snapshot at basePath: "<base minus .osnb>.d<resultVersion>.osnd".
func DeltaPath(basePath string, resultVersion uint64) string {
	return strings.TrimSuffix(basePath, Ext) + fmt.Sprintf(".d%d%s", resultVersion, DeltaExt)
}

var writeFile = atomicfile.Write // tests swap it to fail after the rename

// SaveDelta persists the delta that turned parent into result as result's
// .osnd segment beside basePath, through atomicfile.Write like Save, so the
// segment's name is durable when SaveDelta returns. It returns the segment
// path. On an error no segment is left at that path, even when the write
// failed after its rename, so a refused delta does not replay at load.
func SaveDelta(basePath string, parent, result *graph.Graph, d graph.Delta) (string, error) {
	if result.Version() != parent.Version()+1 {
		return "", fmt.Errorf("snapshot: delta segment spans versions %d -> %d, want exactly one step", parent.Version(), result.Version())
	}
	path := DeltaPath(basePath, result.Version())
	h := DeltaHeader{
		NumNodes:      parent.NumNodes(),
		ParentVersion: parent.Version(),
		ParentFP:      parent.Fingerprint(),
		ResultFP:      result.Fingerprint(),
	}
	if err := writeFile(path, func(w io.Writer) error { return WriteDelta(w, d, h) }); err != nil {
		_ = os.Remove(path) // best effort: the write's error is the one to report
		return "", err
	}
	return path, nil
}

// LoadDelta reads the delta segment at path.
func LoadDelta(path string) (graph.Delta, DeltaHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return graph.Delta{}, DeltaHeader{}, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	d, h, err := ReadDelta(f)
	if err != nil {
		return d, h, fmt.Errorf("snapshot: loading %s: %w", path, err)
	}
	return d, h, nil
}

// DeltaSegment locates one .osnd segment of a base snapshot.
type DeltaSegment struct {
	// Path is the segment file path.
	Path string
	// ResultVersion is the graph version applying the segment produces,
	// parsed from the file name.
	ResultVersion uint64
}

// ListDeltas returns the .osnd segments beside basePath, sorted by result
// version. Files that do not follow the <base>.dN.osnd naming are ignored.
func ListDeltas(basePath string) ([]DeltaSegment, error) {
	dir := filepath.Dir(basePath)
	stem := strings.TrimSuffix(filepath.Base(basePath), Ext)
	re := regexp.MustCompile("^" + regexp.QuoteMeta(stem) + `\.d(\d+)` + regexp.QuoteMeta(DeltaExt) + "$")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: listing delta segments of %s: %w", basePath, err)
	}
	var segs []DeltaSegment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := re.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		v, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, DeltaSegment{Path: filepath.Join(dir, e.Name()), ResultVersion: v})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].ResultVersion < segs[j].ResultVersion })
	return segs, nil
}

// applySegments replays basePath's .osnd segments over the freshly loaded g
// in version order. Segments at or below g's version are skipped (compaction
// leftovers); a gap in the version chain, a node-count or fingerprint
// mismatch, or a corrupt segment is an error — a half-applied delta chain
// must never serve.
func applySegments(basePath string, g *graph.Graph) (*graph.Graph, error) {
	segs, err := ListDeltas(basePath)
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		if seg.ResultVersion <= g.Version() {
			continue // already folded into the base by compaction
		}
		if seg.ResultVersion != g.Version()+1 {
			return nil, fmt.Errorf("snapshot: delta chain of %s jumps from version %d to %d (missing segment?)", basePath, g.Version(), seg.ResultVersion)
		}
		d, h, err := LoadDelta(seg.Path)
		if err != nil {
			return nil, err
		}
		if h.NumNodes != g.NumNodes() {
			return nil, fmt.Errorf("snapshot: %s is for a %d-node graph, base has %d", seg.Path, h.NumNodes, g.NumNodes())
		}
		if h.ParentVersion != g.Version() {
			return nil, fmt.Errorf("snapshot: %s applies to version %d, graph is at %d", seg.Path, h.ParentVersion, g.Version())
		}
		if fp := g.Fingerprint(); fp != h.ParentFP {
			return nil, fmt.Errorf("snapshot: %s parent fingerprint %016x, graph has %016x — segment belongs to a different base", seg.Path, h.ParentFP, fp)
		}
		ng, err := g.ApplyDelta(d)
		if err != nil {
			return nil, fmt.Errorf("snapshot: applying %s: %w", seg.Path, err)
		}
		if fp := ng.Fingerprint(); fp != h.ResultFP {
			return nil, fmt.Errorf("snapshot: %s result fingerprint %016x, patched graph has %016x", seg.Path, h.ResultFP, fp)
		}
		g = ng
	}
	return g, nil
}

// CompactSnapshot folds g's delta overlay into a fresh base snapshot at
// basePath and removes the segments it absorbed. The base rewrite is atomic
// and durable (Save's temp file, fsync, rename, directory fsync), and
// segment removal starts only after it returns, so a crash between the two
// leaves stale segments that Load recognizes by version and skips. It
// returns how many segments were removed.
func CompactSnapshot(basePath string, g *graph.Graph) (int, error) {
	if err := Save(basePath, g.Compact()); err != nil {
		return 0, err
	}
	segs, err := ListDeltas(basePath)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, seg := range segs {
		if seg.ResultVersion > g.Version() {
			continue // produced after our snapshot of the graph; keep
		}
		if err := os.Remove(seg.Path); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("snapshot: removing absorbed segment %s: %w", seg.Path, err)
		}
		removed++
	}
	return removed, nil
}
