package httpsrc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"slices"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/graph"
)

// This file is the .osnc persistent response cache: an append-only log of
// upstream responses, so a recording interrupted mid-walk resumes without
// re-paying the upstream API for anything it already fetched. The format
// follows the repository's .osnb/.osnt conventions — magic/version header,
// little-endian integers, CRC-32 (IEEE) framing — but is a LOG, not a
// snapshot: each response is one self-contained CRC-framed record written
// with a single fsync'd append, so a crash can only ever produce a partial
// tail record, which Open truncates away. A corrupt record mid-file ends
// the valid prefix the same way: the cache never serves bytes that fail
// their frame check.
//
// Layout:
//
//	header  "OSNC" | u32 version | u64 nodes | u64 edges | u32 CRC(header)
//	record  u8 kind | u32 node | u32 count | count × u32 | u32 CRC(record)
//
// kind 0 carries a neighbor list, kind 1 a label set. nodes/edges pin the
// upstream identity: opening a cache recorded against a different-sized
// upstream is an error, not a silent source of wrong responses.

const (
	// cacheMagic marks a .osnc response-cache file.
	cacheMagic = "OSNC"
	// cacheVersion is the current .osnc format version.
	cacheVersion = 1
	// cacheHeaderSize is the byte length of the fixed header.
	cacheHeaderSize = 4 + 4 + 8 + 8 + 4
	// recNeighbors and recLabels are the record kinds.
	recNeighbors = 0
	recLabels    = 1
	// maxSaneCount bounds a record's element count, guarding the loader's
	// allocations against corrupt or hostile length fields.
	maxSaneCount = 1 << 28
)

// Cache is the on-disk response cache of one HTTP source. All methods are
// safe for concurrent use. With an empty path the cache is memory-only:
// same semantics, nothing persisted.
type Cache struct {
	mu    sync.Mutex
	f     *os.File // nil when memory-only
	path  string
	nodes int
	edges int64

	neighbors map[graph.Node][]graph.Node
	labels    map[graph.Node][]graph.Label
}

// OpenCache opens (or creates) the response cache at path for an upstream
// with the given node and edge counts. A new cache starts as a header-only
// file written through atomicfile.Write, then opens like an existing one.
// An existing file must carry the same counts — a cache recorded against a
// different upstream fails here instead of serving wrong responses. A
// corrupt or partially written tail is truncated away; everything before it
// is loaded. path "" returns a memory-only cache.
func OpenCache(path string, nodes int, edges int64) (*Cache, error) {
	c := &Cache{
		path:      path,
		nodes:     nodes,
		edges:     edges,
		neighbors: make(map[graph.Node][]graph.Node),
		labels:    make(map[graph.Node][]graph.Label),
	}
	if path == "" {
		return c, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		if err := atomicfile.Write(path, func(w io.Writer) error {
			_, err := w.Write(cacheHeader(nodes, edges))
			return err
		}); err != nil {
			return nil, fmt.Errorf("httpsrc: create cache: %w", err)
		}
		f, err = os.OpenFile(path, os.O_RDWR, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("httpsrc: open cache: %w", err)
	}
	if err := c.load(f); err != nil {
		f.Close()
		return nil, err
	}
	c.f = f
	return c, nil
}

// cacheHeader returns the fixed header of a cache for an upstream with the
// given node and edge counts.
func cacheHeader(nodes int, edges int64) []byte {
	buf := make([]byte, cacheHeaderSize)
	copy(buf, cacheMagic)
	binary.LittleEndian.PutUint32(buf[4:], cacheVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(nodes))
	binary.LittleEndian.PutUint64(buf[16:], uint64(edges))
	binary.LittleEndian.PutUint32(buf[24:], crc32.ChecksumIEEE(buf[:24]))
	return buf
}

// load validates the header, replays every intact record into the in-memory
// maps and truncates a corrupt or partial tail so appends resume cleanly.
func (c *Cache) load(f *os.File) error {
	hdr := make([]byte, cacheHeaderSize)
	if n, err := io.ReadFull(f, hdr); err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("httpsrc: cache %s: truncated header (%d bytes, want %d)", c.path, n, cacheHeaderSize)
	} else if err != nil {
		return fmt.Errorf("httpsrc: read cache header: %w", err)
	}
	if string(hdr[:4]) != cacheMagic {
		return fmt.Errorf("httpsrc: cache %s: bad magic %q (want %q) — not a .osnc response cache", c.path, hdr[:4], cacheMagic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != cacheVersion {
		return fmt.Errorf("httpsrc: cache %s: version %d, this build reads %d", c.path, v, cacheVersion)
	}
	if got := crc32.ChecksumIEEE(hdr[:24]); got != binary.LittleEndian.Uint32(hdr[24:]) {
		return fmt.Errorf("httpsrc: cache %s: header checksum mismatch — file is corrupt", c.path)
	}
	nodes := binary.LittleEndian.Uint64(hdr[8:])
	edges := binary.LittleEndian.Uint64(hdr[16:])
	if int(nodes) != c.nodes || int64(edges) != c.edges {
		return fmt.Errorf("httpsrc: cache %s was recorded against a %d-node/%d-edge upstream; current upstream has %d/%d — refusing to mix responses",
			c.path, nodes, edges, c.nodes, c.edges)
	}

	rest, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("httpsrc: read cache %s: %w", c.path, err)
	}
	good := 0 // bytes of rest that parsed cleanly
	for good < len(rest) {
		n, kind, node, vals, ok := parseRecord(rest[good:])
		if !ok {
			break
		}
		switch kind {
		case recNeighbors:
			adj := make([]graph.Node, len(vals))
			for i, v := range vals {
				adj[i] = graph.Node(v)
			}
			// An older build cached lists in the upstream's order.
			slices.Sort(adj)
			c.neighbors[node] = adj
		case recLabels:
			ls := make([]graph.Label, len(vals))
			for i, v := range vals {
				ls[i] = graph.Label(v)
			}
			c.labels[node] = ls
		default:
			// Unknown kind: written by a future version without a version
			// bump would be a bug; treat as corruption.
			n, ok = 0, false
		}
		if !ok {
			break
		}
		good += n
	}
	if good < len(rest) {
		if err := f.Truncate(int64(cacheHeaderSize + good)); err != nil {
			return fmt.Errorf("httpsrc: cache %s: truncate corrupt tail: %w", c.path, err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("httpsrc: cache %s: sync after truncate: %w", c.path, err)
		}
	}
	if _, err := f.Seek(int64(cacheHeaderSize+good), io.SeekStart); err != nil {
		return fmt.Errorf("httpsrc: cache %s: seek append position: %w", c.path, err)
	}
	return nil
}

// parseRecord decodes one record from the front of b. ok is false when the
// bytes do not form an intact record (short frame, insane count, bad CRC) —
// the caller treats that position as the end of the valid prefix.
func parseRecord(b []byte) (n int, kind byte, node graph.Node, vals []uint32, ok bool) {
	const fixed = 1 + 4 + 4 // kind + node + count
	if len(b) < fixed+4 {
		return 0, 0, 0, nil, false
	}
	count := binary.LittleEndian.Uint32(b[5:])
	if count > maxSaneCount {
		return 0, 0, 0, nil, false
	}
	n = fixed + int(count)*4 + 4
	if len(b) < n {
		return 0, 0, 0, nil, false
	}
	body := b[:n-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[n-4:]) {
		return 0, 0, 0, nil, false
	}
	vals = make([]uint32, count)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(b[fixed+i*4:])
	}
	return n, b[0], graph.Node(binary.LittleEndian.Uint32(b[1:])), vals, true
}

// appendRecord frames, appends and fsyncs one record. The frame is written
// with a single Write call, so an interrupted process leaves at most one
// partial tail record for the next Open to truncate. Callers hold c.mu.
func (c *Cache) appendRecord(kind byte, node graph.Node, vals []uint32) error {
	if c.f == nil {
		return nil
	}
	buf := make([]byte, 1+4+4+len(vals)*4+4)
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:], uint32(node))
	binary.LittleEndian.PutUint32(buf[5:], uint32(len(vals)))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[9+i*4:], v)
	}
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc32.ChecksumIEEE(buf[:len(buf)-4]))
	if _, err := c.f.Write(buf); err != nil {
		return fmt.Errorf("httpsrc: append cache record: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("httpsrc: sync cache append: %w", err)
	}
	return nil
}

// Neighbors returns the cached friend list of u, if present.
func (c *Cache) Neighbors(u graph.Node) ([]graph.Node, bool) {
	c.mu.Lock()
	adj, ok := c.neighbors[u]
	c.mu.Unlock()
	return adj, ok
}

// Labels returns the cached label set of u, if present (present-but-empty
// is distinguished from absent, so empty label sets are not refetched).
func (c *Cache) Labels(u graph.Node) ([]graph.Label, bool) {
	c.mu.Lock()
	ls, ok := c.labels[u]
	c.mu.Unlock()
	return ls, ok
}

// PutNeighbors caches u's friend list, appending it to the log. A node
// already cached is not rewritten.
func (c *Cache) PutNeighbors(u graph.Node, adj []graph.Node) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.neighbors[u]; dup {
		return nil
	}
	vals := make([]uint32, len(adj))
	for i, v := range adj {
		vals[i] = uint32(v)
	}
	if err := c.appendRecord(recNeighbors, u, vals); err != nil {
		return err
	}
	c.neighbors[u] = adj
	return nil
}

// PutLabels caches u's label set, appending it to the log.
func (c *Cache) PutLabels(u graph.Node, ls []graph.Label) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.labels[u]; dup {
		return nil
	}
	vals := make([]uint32, len(ls))
	for i, v := range ls {
		vals[i] = uint32(v)
	}
	if err := c.appendRecord(recLabels, u, vals); err != nil {
		return err
	}
	c.labels[u] = ls
	return nil
}

// NeighborResponses snapshots the cached friend lists — the map a Session is
// primed with (see Client.PrimeSession). The slices are shared read-only
// with the cache; the map is the caller's own.
func (c *Cache) NeighborResponses() map[graph.Node][]graph.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[graph.Node][]graph.Node, len(c.neighbors))
	for u, adj := range c.neighbors {
		out[u] = adj
	}
	return out
}

// Len returns how many neighbor responses the cache holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.neighbors)
}

// Close releases the cache file. Every append was already fsync'd, so Close
// loses nothing.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
