package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// TrajectoryKeys lists the trajectory keys this engine can export, in their
// on-disk .osnt spelling: every key persisted in the store plus every
// completed in-memory trajectory not yet on disk, deduplicated and sorted.
func (e *Engine) TrajectoryKeys() []string {
	seen := make(map[string]bool)
	if e.cfg.Store != nil {
		keys, err := e.cfg.Store.Keys(e.cfg.Name)
		if err != nil {
			e.countStoreError()
		}
		for _, k := range keys {
			seen[k.Filename()] = true
		}
	}
	e.mu.Lock()
	for k, ent := range e.cache {
		if ent.completed() && ent.err == nil {
			k.GraphVersion = ent.traj.GraphVersion
			seen[k.Filename()] = true
		}
	}
	e.mu.Unlock()
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExportTrajectory returns the raw .osnt bytes of the trajectory keyed by
// name (the Filename spelling, e.g. "b500_w4_s1_g0.osnt") and when it was
// recorded: the persisted file verbatim with its modification time when the
// store has it, or the cached in-memory trajectory freshly encoded with the
// entry's recording time (memory-only engines, or a dirty entry whose save
// failed). A key this engine holds nowhere returns an error wrapping
// fs.ErrNotExist; a malformed key wraps ErrBadQuery.
func (e *Engine) ExportTrajectory(name string) ([]byte, time.Time, error) {
	k, ok := store.ParseKeyName(name)
	if !ok {
		return nil, time.Time{}, fmt.Errorf("%w: malformed trajectory key %q (want bB_wW_sS_gV.osnt)", ErrBadQuery, name)
	}
	if e.cfg.Store != nil {
		raw, err := e.cfg.Store.ReadRaw(e.cfg.Name, k)
		var fi fs.FileInfo
		if err == nil {
			fi, err = e.cfg.Store.Stat(e.cfg.Name, k)
		}
		if err == nil {
			return raw, fi.ModTime(), nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			e.countStoreError()
		}
	}
	version := k.GraphVersion
	k.GraphVersion = 0 // the cache key
	e.mu.Lock()
	var traj *core.Trajectory
	var recorded time.Time
	if ent := e.cache[k]; ent != nil && ent.completed() && ent.err == nil && ent.traj.GraphVersion == version {
		traj, recorded = ent.traj, ent.recorded
	}
	e.mu.Unlock()
	if traj == nil {
		return nil, time.Time{}, fmt.Errorf("serve: trajectory %q: %w", name, fs.ErrNotExist)
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, traj); err != nil {
		return nil, time.Time{}, err
	}
	return buf.Bytes(), recorded, nil
}

// ImportTrajectory admits raw .osnt bytes pulled from a peer replica as the
// trajectory keyed by name. The bytes are fully verified before anything is
// admitted: the .osnt CRC and structural checks (store.Decode), the key's
// own spelling, and the same graph version + content fingerprint + burn-in
// identity checks a store reload applies — a peer's file is trusted exactly
// as far as a local one. Verified trajectories are persisted to the store
// (when configured) and installed in the cache, so the next query at this
// configuration is a zero-spend cache hit. recorded is when the peer
// recorded the trajectory (see ExportTrajectory); the entry and its store
// file are dated from it, so a migration keeps the trajectory's age for
// Config.TTL. A zero or future recorded dates the import at its arrival.
// Rejected bytes wrap ErrBadTrajectory and leave no trace.
func (e *Engine) ImportTrajectory(name string, raw []byte, recorded time.Time) error {
	k, ok := store.ParseKeyName(name)
	if !ok {
		return fmt.Errorf("%w: malformed trajectory key %q (want bB_wW_sS_gV.osnt)", ErrBadQuery, name)
	}
	traj, err := store.Decode(raw)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadTrajectory, err)
	}
	if traj.Walkers != k.Walkers || traj.GraphVersion != k.GraphVersion {
		return fmt.Errorf("%w: file is a w%d_g%d trajectory, key %q disagrees",
			ErrBadTrajectory, traj.Walkers, traj.GraphVersion, name)
	}
	if err := e.admit(traj, e.Graph()); err != nil {
		return err
	}

	if now := e.cfg.now(); recorded.IsZero() || recorded.After(now) {
		recorded = now
	}
	persisted := false
	if e.cfg.Store != nil {
		if err := e.cfg.Store.WriteRaw(e.cfg.Name, k, raw); err != nil {
			e.countStoreError()
		} else {
			persisted = true
			// A reload or restart dates the trajectory by the file's
			// modification time, so it must carry the recording time too.
			if path, err := e.cfg.Store.Path(e.cfg.Name, k); err != nil || os.Chtimes(path, recorded, recorded) != nil {
				e.countStoreError()
			}
		}
	}
	ent := e.completeLoaded(&entry{ready: make(chan struct{}), dirty: e.cfg.Store != nil && !persisted},
		traj, int64(len(raw)), recorded)

	k.GraphVersion = 0 // the cache key
	e.mu.Lock()
	e.stats.Imports++
	if persisted {
		e.stats.StoreSaves++
	}
	installed := false
	if _, exists := e.cache[k]; !exists {
		// A recording in flight (or a fresher cached trajectory) keeps its
		// slot; the imported file still landed in the store above.
		e.cache[k] = ent
		installed = true
	}
	e.mu.Unlock()
	if installed {
		e.notifyCached()
	}
	return nil
}
