package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// entry is one cache slot: a recording in flight (ready open) or done
// (ready closed). sharers counts the queries that joined before completion
// and split the bill; ready is only closed under the engine's mu, so once
// it is closed the count is final.
type entry struct {
	ready chan struct{}
	traj  *core.Trajectory
	err   error
	// recorded is when the trajectory was recorded, as far as this engine
	// can tell: the recording's completion, or the .osnt file's
	// modification time for one that came from disk. Config.TTL counts
	// from it.
	recorded time.Time
	lastUsed time.Time
	sharers  int
	// bytes is the trajectory's .osnt-encoded size — the cache weight the
	// workspace byte budget is enforced against.
	bytes int64
	// dirty marks a completed trajectory not yet persisted to the store;
	// eviction and Flush write it out before dropping it.
	dirty bool
	// fromStore marks a trajectory served from disk rather than recorded:
	// its waiters are cache hits and nobody is billed.
	fromStore bool
	// staleSteps is how many steps a top-up re-recorded when it produced
	// this entry's trajectory (0 for fresh recordings and store loads).
	staleSteps int
}

// completed reports whether the entry's recording (or load) has finished.
func (ent *entry) completed() bool {
	select {
	case <-ent.ready:
		return true
	default:
		return false
	}
}

// completeLoaded completes ent with a verified trajectory that came from
// disk or a peer rather than from a recording here — the one constructor
// of such entries (store reload, warm start, import). Its waiters are cache
// hits and nobody is billed; recorded dates the trajectory for Config.TTL.
// Callers hold e.mu when ent is already published in the cache.
func (e *Engine) completeLoaded(ent *entry, traj *core.Trajectory, bytes int64, recorded time.Time) *entry {
	ent.traj, ent.bytes, ent.recorded = traj, bytes, recorded
	ent.fromStore = true
	ent.lastUsed = e.cfg.now()
	close(ent.ready)
	return ent
}

// notifyCached tells the owning workspace (if any) that the cache gained a
// trajectory, so it can enforce the byte budget. Never called with e.mu
// held.
func (e *Engine) notifyCached() {
	if e.cfg.onCached != nil {
		e.cfg.onCached()
	}
}

// CachedTrajectories returns how many completed trajectories the cache
// holds (recordings in flight excluded).
func (e *Engine) CachedTrajectories() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, ent := range e.cache {
		if ent.completed() {
			n++
		}
	}
	return n
}

// CachedBytes returns the total .osnt-encoded size of the completed
// trajectories in the cache — the engine's weight against the workspace
// byte budget.
func (e *Engine) CachedBytes() int64 {
	total, _ := e.lru()
	return total
}

// victim is an engine's least-recently-used completed trajectory — its
// candidate for the workspace's byte-budget eviction.
type victim struct {
	e        *Engine
	key      store.Key
	ent      *entry // nil: the engine has nothing evictable
	lastUsed time.Time
}

// lru scans the cache once for the engine's weight (see CachedBytes) and
// its eviction candidate. Recordings in flight are never candidates: their
// waiters hold them.
func (e *Engine) lru() (int64, victim) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	v := victim{e: e}
	for k, ent := range e.cache {
		if !ent.completed() || ent.err != nil {
			continue
		}
		total += ent.bytes
		if v.ent == nil || ent.lastUsed.Before(v.lastUsed) {
			v.key, v.ent, v.lastUsed = k, ent, ent.lastUsed
		}
	}
	return total, v
}

// evict drops v from its engine's cache, unless a concurrent query already
// replaced or dropped it. A dirty victim is persisted on the way out, so
// the next request for it reloads from disk instead of re-walking.
func (v victim) evict() {
	e := v.e
	e.mu.Lock()
	if e.cache[v.key] != v.ent {
		e.mu.Unlock()
		return
	}
	delete(e.cache, v.key)
	dirty := v.ent.dirty
	e.mu.Unlock()
	if dirty {
		_ = e.saveItem(v.key, v.ent, nil) // failure is counted in StoreErrors
	}
}

// Flush persists every dirty cached trajectory to the store, returning the
// first error. It is the graceful-shutdown half of the durability story:
// recordings are normally saved as they complete, and Flush catches any
// whose save failed (the error count is in Stats.StoreErrors). Engines
// without a store flush trivially.
func (e *Engine) Flush() error {
	if e.cfg.Store == nil {
		return nil
	}
	e.mu.Lock()
	dirty := make(map[store.Key]*entry)
	for k, ent := range e.cache {
		if ent.completed() && ent.err == nil && ent.dirty {
			dirty[k] = ent
		}
	}
	e.mu.Unlock()
	var firstErr error
	for k, ent := range dirty {
		if err := e.saveItem(k, ent, nil); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// saveItem persists one completed dirty trajectory and clears its dirty
// mark. The file is keyed by the graph version the trajectory was recorded
// on, which may be older than the engine's current graph. enc is the
// trajectory's layout when the caller holds it (a fresh recording's eager
// save), or nil to compute it.
func (e *Engine) saveItem(key store.Key, ent *entry, enc *store.Encoding) error {
	key.GraphVersion = ent.traj.GraphVersion
	if enc == nil {
		enc = store.Encode(ent.traj)
	}
	err := e.cfg.Store.Save(e.cfg.Name, key, enc)
	e.mu.Lock()
	if err != nil {
		e.stats.StoreErrors++
	} else {
		ent.dirty = false
		e.stats.StoreSaves++
	}
	e.mu.Unlock()
	return err
}

// warmStart loads the persisted trajectories of this graph's CURRENT
// version into the cache until they fill room bytes, so the first queries
// after a restart are served with zero API spend. Files of older graph
// versions are left on disk as top-up sources; files past the freshness
// TTL are left for the next query to re-record; files that fail to load —
// corrupt, truncated, or recorded against a different graph — are skipped
// and counted in Stats.StoreErrors. It returns how many trajectories were
// loaded.
func (e *Engine) warmStart(room int64) int {
	if e.cfg.Store == nil {
		return 0
	}
	keys, err := e.cfg.Store.Keys(e.cfg.Name)
	if err != nil {
		e.countStoreError()
		return 0
	}
	version := e.Graph().Version()
	loaded := 0
	for _, k := range keys {
		if room <= 0 {
			break
		}
		if k.GraphVersion != version {
			continue
		}
		k.GraphVersion = 0 // the cache key
		traj, fi := e.loadEntry(k)
		if traj == nil {
			continue
		}
		e.mu.Lock()
		if _, exists := e.cache[k]; !exists {
			e.cache[k] = e.completeLoaded(&entry{ready: make(chan struct{})}, traj, fi.Size(), fi.ModTime())
			e.stats.StoreLoads++
			loaded++
			room -= fi.Size()
		}
		e.mu.Unlock()
	}
	if loaded > 0 {
		e.notifyCached()
	}
	return loaded
}
