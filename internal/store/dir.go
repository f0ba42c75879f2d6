package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/core"
)

// Key identifies one persisted trajectory within a graph's store directory:
// the (budget, walkers, seed, graph version) configuration the serving layer
// shares trajectories by. Two queries with equal keys replay the same walk,
// so one file per key is exactly the cache the server rebuilds on restart.
// The graph version makes retention per-version: when a graph mutates, the
// old version's files survive as top-up sources for incremental re-recording
// instead of being thrown away.
type Key struct {
	// Budget is the recording's API-call budget.
	Budget int
	// Walkers is the recording's fleet size.
	Walkers int
	// Seed is the recording's trajectory seed.
	Seed int64
	// GraphVersion is the delta-log version of the graph the trajectory was
	// recorded on.
	GraphVersion uint64
}

// String renders the key in its on-disk spelling, e.g. "b500_w4_s1_g0".
func (k Key) String() string {
	return fmt.Sprintf("b%d_w%d_s%d_g%d", k.Budget, k.Walkers, k.Seed, k.GraphVersion)
}

// Filename returns the key's .osnt file name, e.g. "b500_w4_s1_g0.osnt".
func (k Key) Filename() string { return k.String() + Ext }

// keyRe matches the on-disk key spelling; seeds may be negative.
var keyRe = regexp.MustCompile(`^b(\d+)_w(\d+)_s(-?\d+)_g(\d+)\.osnt$`)

// ParseKeyName parses a .osnt file name back into its Key; ok is false for
// names this package did not produce.
func ParseKeyName(name string) (Key, bool) {
	m := keyRe.FindStringSubmatch(name)
	if m == nil {
		return Key{}, false
	}
	budget, err1 := strconv.Atoi(m[1])
	walkers, err2 := strconv.Atoi(m[2])
	seed, err3 := strconv.ParseInt(m[3], 10, 64)
	version, err4 := strconv.ParseUint(m[4], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return Key{}, false
	}
	return Key{Budget: budget, Walkers: walkers, Seed: seed, GraphVersion: version}, true
}

// graphNameRe constrains graph names to path-safe tokens: they become
// directory names under the store root and path segments in the admin API.
var graphNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidGraphName reports whether name is acceptable as a workspace graph
// name: 1–64 characters of letters, digits, dot, underscore or dash,
// starting with a letter or digit (which also rules out "." and "..").
func ValidGraphName(name string) bool {
	return graphNameRe.MatchString(name) && !strings.Contains(name, "..")
}

// Dir is a trajectory store rooted at one directory: each graph owns a
// subdirectory holding one .osnt file per trajectory key. All methods are
// safe for concurrent use — atomicity comes from atomicfile.Write's temp
// file, fsync, rename and directory fsync, not from locking.
type Dir struct {
	root string
}

// NewDir opens (creating if needed) a trajectory store rooted at root.
func NewDir(root string) (*Dir, error) {
	if root == "" {
		return nil, fmt.Errorf("store: empty store directory")
	}
	if err := atomicfile.MkdirAll(root); err != nil {
		return nil, fmt.Errorf("store: creating store directory: %w", err)
	}
	return &Dir{root: root}, nil
}

// Root returns the store's root directory.
func (d *Dir) Root() string { return d.root }

// Path returns the file path a (graph, key) trajectory persists at.
func (d *Dir) Path(graphName string, k Key) (string, error) {
	if !ValidGraphName(graphName) {
		return "", fmt.Errorf("store: invalid graph name %q", graphName)
	}
	return filepath.Join(d.root, graphName, k.Filename()), nil
}

// Save persists t as the (graph, key) trajectory, atomically replacing any
// previous file for the same key.
func (d *Dir) Save(graphName string, k Key, t *core.Trajectory) error {
	path, err := d.createPath(graphName, k)
	if err != nil {
		return err
	}
	return Save(path, t)
}

// createPath returns the file path a (graph, key) trajectory persists at,
// creating the graph's directory through atomicfile.MkdirAll if needed, so
// the first trajectory saved into it is as durable as any later one.
func (d *Dir) createPath(graphName string, k Key) (string, error) {
	path, err := d.Path(graphName, k)
	if err != nil {
		return "", err
	}
	if err := atomicfile.MkdirAll(filepath.Dir(path)); err != nil {
		return "", fmt.Errorf("store: creating graph directory: %w", err)
	}
	return path, nil
}

// Load reads the (graph, key) trajectory. A missing file returns an error
// wrapping fs.ErrNotExist, which callers distinguish from corruption.
func (d *Dir) Load(graphName string, k Key) (*core.Trajectory, error) {
	path, err := d.Path(graphName, k)
	if err != nil {
		return nil, err
	}
	return Load(path)
}

// Stat returns the file metadata of the (graph, key) trajectory. By the
// format's construction its size equals EncodedSize of the loaded
// trajectory, so callers can weigh a cache entry without re-scanning it. A
// missing file returns an error wrapping fs.ErrNotExist.
func (d *Dir) Stat(graphName string, k Key) (fs.FileInfo, error) {
	path, err := d.Path(graphName, k)
	if err != nil {
		return nil, err
	}
	return os.Stat(path)
}

// ReadRaw returns the exact on-disk bytes of the (graph, key) trajectory —
// the .osnt image as written, including its trailing CRC. It is the export
// half of trajectory replication: the bytes can be shipped to a peer replica
// verbatim and verified there by Decode. A missing file returns an error
// wrapping fs.ErrNotExist.
func (d *Dir) ReadRaw(graphName string, k Key) ([]byte, error) {
	path, err := d.Path(graphName, k)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return raw, nil
}

// WriteRaw atomically installs raw as the (graph, key) trajectory file,
// replacing any previous file for the same key. The bytes are written as
// given — callers are responsible for validating them first (Decode runs the
// full CRC and structural checks); the serving layer never admits unverified
// bytes. The write goes through atomicfile.Write like Save's, so a crash
// mid-write never leaves a truncated file behind.
func (d *Dir) WriteRaw(graphName string, k Key, raw []byte) error {
	path, err := d.createPath(graphName, k)
	if err != nil {
		return err
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// Remove deletes the (graph, key) trajectory file; removing a missing file
// is not an error.
func (d *Dir) Remove(graphName string, k Key) error {
	path, err := d.Path(graphName, k)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing %s: %w", path, err)
	}
	return nil
}

// Keys lists the trajectory keys persisted for a graph, sorted by
// (budget, walkers, seed, graph version). A graph with no directory yet has
// no keys; files that are not well-formed key names are ignored.
func (d *Dir) Keys(graphName string) ([]Key, error) {
	if !ValidGraphName(graphName) {
		return nil, fmt.Errorf("store: invalid graph name %q", graphName)
	}
	entries, err := os.ReadDir(filepath.Join(d.root, graphName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: listing %s trajectories: %w", graphName, err)
	}
	var keys []Key
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if k, ok := ParseKeyName(e.Name()); ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Budget != keys[j].Budget {
			return keys[i].Budget < keys[j].Budget
		}
		if keys[i].Walkers != keys[j].Walkers {
			return keys[i].Walkers < keys[j].Walkers
		}
		if keys[i].Seed != keys[j].Seed {
			return keys[i].Seed < keys[j].Seed
		}
		return keys[i].GraphVersion < keys[j].GraphVersion
	})
	return keys, nil
}
