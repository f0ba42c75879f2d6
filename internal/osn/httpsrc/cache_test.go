package httpsrc

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// seedCache writes a deterministic cache: nodes 0..9 with 3-element friend
// lists and labels on the even nodes. Record layout (all lists len 3):
// header 28 bytes, then 10 neighbor records of 25 bytes, then 5 label
// records of 25 bytes.
func seedCache(t *testing.T, path string) {
	t.Helper()
	c, err := OpenCache(path, 100, 250)
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.Node(0); u < 10; u++ {
		if err := c.PutNeighbors(u, []graph.Node{u + 1, u + 2, u + 3}); err != nil {
			t.Fatal(err)
		}
	}
	for u := graph.Node(0); u < 10; u += 2 {
		if err := c.PutLabels(u, []graph.Label{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// fileLen returns the size of the file at path. After OpenCache it is the
// header plus the intact records: Open truncates everything past them.
func fileLen(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// wantNeighbors is what seedCache stored for u.
func wantNeighbors(u graph.Node) []graph.Node { return []graph.Node{u + 1, u + 2, u + 3} }

// checkNoWrongResponse asserts the reloaded cache only ever returns exactly
// what was stored — a corrupt file may lose responses, never invent them.
func checkNoWrongResponse(t *testing.T, c *Cache) {
	t.Helper()
	for u := graph.Node(0); u < 10; u++ {
		if adj, ok := c.Neighbors(u); ok && !reflect.DeepEqual(adj, wantNeighbors(u)) {
			t.Errorf("node %d: cache serves %v, stored %v — corrupt data escaped the frame check", u, adj, wantNeighbors(u))
		}
		if ls, ok := c.Labels(u); ok && !reflect.DeepEqual(ls, []graph.Label{1, 2, 3}) {
			t.Errorf("node %d: cache serves labels %v — corrupt data escaped the frame check", u, ls)
		}
	}
}

func TestCacheRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resp.osnc")
	seedCache(t, path)
	c, err := OpenCache(path, 100, 250)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 10 {
		t.Fatalf("reloaded %d neighbor responses, want 10", c.Len())
	}
	if got, want := fileLen(t, path), int64(cacheHeaderSize+15*25); got != want {
		t.Errorf("clean file is %d bytes after open, want %d: intact records were dropped", got, want)
	}
	for u := graph.Node(0); u < 10; u++ {
		adj, ok := c.Neighbors(u)
		if !ok || !reflect.DeepEqual(adj, wantNeighbors(u)) {
			t.Errorf("node %d: got %v/%v, want %v", u, adj, ok, wantNeighbors(u))
		}
	}
	ls, ok := c.Labels(4)
	if !ok || !reflect.DeepEqual(ls, []graph.Label{1, 2, 3}) {
		t.Errorf("labels(4): got %v/%v", ls, ok)
	}
	if _, ok := c.Labels(5); ok {
		t.Error("labels(5) was never stored but reloaded as present")
	}
	// A resumed cache keeps appending where the file left off.
	if err := c.PutNeighbors(50, []graph.Node{51}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, err := OpenCache(path, 100, 250)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if adj, ok := c2.Neighbors(50); !ok || !reflect.DeepEqual(adj, []graph.Node{51}) {
		t.Errorf("post-reload append lost: %v/%v", adj, ok)
	}
}

func TestCacheEmptyResponseDistinctFromAbsent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resp.osnc")
	c, err := OpenCache(path, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutNeighbors(3, []graph.Node{}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c, err = OpenCache(path, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if adj, ok := c.Neighbors(3); !ok || len(adj) != 0 {
		t.Errorf("empty response should reload as present-and-empty, got %v/%v", adj, ok)
	}
	if _, ok := c.Neighbors(4); ok {
		t.Error("node 4 was never stored")
	}
}

// TestCacheCorruptionSweep mirrors the .osnb/.osnt corruption suites for the
// append-only log: every damage mode either loads the valid prefix or fails
// with an actionable error — and never serves a wrong response.
func TestCacheCorruptionSweep(t *testing.T) {
	const headerSize = cacheHeaderSize // 28
	const recSize = 25                 // 1 + 4 + 4 + 3*4 + 4 for the seeded lists
	cases := []struct {
		name    string
		corrupt func(t *testing.T, raw []byte) []byte
		wantErr string // "" = must open; substring of the error otherwise
		// minLoaded/maxLoaded bound the surviving neighbor responses.
		minLoaded, maxLoaded int
	}{
		{
			name: "bit flip in second record",
			corrupt: func(t *testing.T, raw []byte) []byte {
				raw[headerSize+recSize+10] ^= 0x40
				return raw
			},
			// Record 0 survives; the flipped record ends the valid prefix.
			minLoaded: 1, maxLoaded: 1,
		},
		{
			name: "bit flip in last label record",
			corrupt: func(t *testing.T, raw []byte) []byte {
				raw[len(raw)-6] ^= 0x01
				return raw
			},
			// Only the damaged tail record is lost.
			minLoaded: 10, maxLoaded: 10,
		},
		{
			name: "truncated record",
			corrupt: func(t *testing.T, raw []byte) []byte {
				return raw[:len(raw)-7]
			},
			minLoaded: 10, maxLoaded: 10,
		},
		{
			name: "kill mid-append partial tail",
			corrupt: func(t *testing.T, raw []byte) []byte {
				// A crash half-way through an append: the fixed prefix of a
				// record with count 3, but only one of its values on disk.
				tail := make([]byte, 13)
				tail[0] = recNeighbors
				binary.LittleEndian.PutUint32(tail[1:], 77)
				binary.LittleEndian.PutUint32(tail[5:], 3)
				binary.LittleEndian.PutUint32(tail[9:], 78)
				return append(raw, tail...)
			},
			minLoaded: 10, maxLoaded: 10,
		},
		{
			name: "truncated header",
			corrupt: func(t *testing.T, raw []byte) []byte {
				return raw[:headerSize-5]
			},
			wantErr: "truncated header",
		},
		{
			name: "wrong magic",
			corrupt: func(t *testing.T, raw []byte) []byte {
				copy(raw, "XSNC")
				return raw
			},
			wantErr: "bad magic",
		},
		{
			name: "wrong version",
			corrupt: func(t *testing.T, raw []byte) []byte {
				binary.LittleEndian.PutUint32(raw[4:], cacheVersion+9)
				return raw
			},
			wantErr: "version",
		},
		{
			name: "header bit flip",
			corrupt: func(t *testing.T, raw []byte) []byte {
				raw[9] ^= 0x10
				binary.LittleEndian.PutUint32(raw[4:], cacheVersion) // keep magic/version intact
				return raw
			},
			wantErr: "checksum",
		},
		{
			name: "insane record count",
			corrupt: func(t *testing.T, raw []byte) []byte {
				// First record claims 2^30 values with a fixed-up CRC: the
				// sanity bound must stop the allocation, dropping the tail.
				binary.LittleEndian.PutUint32(raw[headerSize+5:], 1<<30)
				body := raw[headerSize : headerSize+recSize-4]
				binary.LittleEndian.PutUint32(raw[headerSize+recSize-4:], crc32.ChecksumIEEE(body))
				return raw
			},
			minLoaded: 0, maxLoaded: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "resp.osnc")
			seedCache(t, path)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damaged := tc.corrupt(t, raw)
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenCache(path, 100, 250)
			if tc.wantErr != "" {
				if err == nil {
					c.Close()
					t.Fatalf("damaged file opened cleanly, want error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("want valid-prefix load, got error: %v", err)
			}
			defer c.Close()
			if n := c.Len(); n < tc.minLoaded || n > tc.maxLoaded {
				t.Errorf("loaded %d responses, want %d..%d", n, tc.minLoaded, tc.maxLoaded)
			}
			if got := fileLen(t, path); got >= int64(len(damaged)) {
				t.Errorf("damaged file is %d bytes after open, was %d: the tail was not truncated", got, len(damaged))
			}
			checkNoWrongResponse(t, c)
			// The truncation healed the file: appends land cleanly and the
			// next open sees them without drops.
			if err := c.PutNeighbors(90, []graph.Node{91, 92}); err != nil {
				t.Fatal(err)
			}
			c.Close()
			healed := fileLen(t, path)
			c2, err := OpenCache(path, 100, 250)
			if err != nil {
				t.Fatalf("reopen after heal: %v", err)
			}
			defer c2.Close()
			if got := fileLen(t, path); got != healed {
				t.Errorf("healed file shrank from %d to %d bytes on reopen", healed, got)
			}
			if adj, ok := c2.Neighbors(90); !ok || !reflect.DeepEqual(adj, []graph.Node{91, 92}) {
				t.Errorf("append after heal lost: %v/%v", adj, ok)
			}
		})
	}
}

// TestCacheUpstreamMismatch: a cache recorded against a different-sized
// upstream must be refused, not silently mixed.
func TestCacheUpstreamMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resp.osnc")
	seedCache(t, path)
	if _, err := OpenCache(path, 99, 250); err == nil || !strings.Contains(err.Error(), "recorded against") {
		t.Fatalf("node-count mismatch: got %v", err)
	}
	if _, err := OpenCache(path, 100, 9); err == nil || !strings.Contains(err.Error(), "recorded against") {
		t.Fatalf("edge-count mismatch: got %v", err)
	}
}

// TestCacheMemoryOnly: an empty path degrades to a process-local cache.
func TestCacheMemoryOnly(t *testing.T) {
	c, err := OpenCache("", 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutNeighbors(1, []graph.Node{2}); err != nil {
		t.Fatal(err)
	}
	if adj, ok := c.Neighbors(1); !ok || len(adj) != 1 {
		t.Errorf("memory-only cache lost a response: %v/%v", adj, ok)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
