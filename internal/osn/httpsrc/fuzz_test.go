package httpsrc

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// FuzzOpenCache feeds mutated .osnc logs to OpenCache through a file. The
// header CRC is recomputed, and the cache is opened for the upstream counts
// the header names, so that mutations reach the record parser. OpenCache
// must return a cache or an error, never panic. An opened file has been
// healed: reopening it must load the same responses and leave its length
// alone. The seed is a fresh three-record log.
func FuzzOpenCache(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.osnc")
	c, err := OpenCache(seed, 10, 20)
	if err != nil {
		f.Fatal(err)
	}
	if err := c.PutNeighbors(1, []graph.Node{2, 3}); err != nil {
		f.Fatal(err)
	}
	if err := c.PutNeighbors(2, []graph.Node{}); err != nil {
		f.Fatal(err)
	}
	if err := c.PutLabels(1, []graph.Label{7}); err != nil {
		f.Fatal(err)
	}
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = append([]byte(nil), raw...)
		var nodes, edges uint64
		if len(raw) >= cacheHeaderSize {
			binary.LittleEndian.PutUint32(raw[24:], crc32.ChecksumIEEE(raw[:24]))
			nodes = binary.LittleEndian.Uint64(raw[8:])
			edges = binary.LittleEndian.Uint64(raw[16:])
		}
		path := filepath.Join(t.TempDir(), "resp.osnc")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(path, int(nodes), int64(edges))
		if err != nil {
			return
		}
		neighbors, labels := c.neighbors, c.labels
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		healed := fileLen(t, path)
		c2, err := OpenCache(path, int(nodes), int64(edges))
		if err != nil {
			t.Fatalf("reopening a healed cache: %v", err)
		}
		defer c2.Close()
		if !reflect.DeepEqual(c2.neighbors, neighbors) || !reflect.DeepEqual(c2.labels, labels) {
			t.Fatalf("reopened cache loads different responses: %v %v, first open %v %v", c2.neighbors, c2.labels, neighbors, labels)
		}
		if got := fileLen(t, path); got != healed {
			t.Fatalf("reopening a healed cache changed its length from %d to %d", healed, got)
		}
	})
}
