package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
	"repro/internal/store"
)

// acquire resolves the query's trajectory: a valid cached one (hit), an
// in-flight recording to join, a persisted one reloaded from the store, or
// a (possibly topped-up) recording this query triggers. A cached trajectory
// whose graph version no longer matches the served graph is not discarded
// outright: it becomes the top-up source for the recording that replaces it,
// so only its invalidated steps are re-bought upstream.
func (e *Engine) acquire(ctx context.Context, q Query, key store.Key) (*entry, bool, error) {
	var stale *core.Trajectory
	for {
		e.mu.Lock()
		ent := e.cache[key]
		if ent != nil {
			select {
			case <-ent.ready:
				// A completed recording that failed, or outlived its freshness
				// TTL, is dropped and this query retries with a fresh one.
				// Only the queries that actually waited on a failed recording
				// see its error (through the join and miss paths below).
				if ent.err != nil || e.expired(ent.recorded) {
					delete(e.cache, key)
					e.mu.Unlock()
					continue
				}
				if g := e.Graph(); ent.traj.GraphVersion != g.Version() ||
					ent.traj.GraphFingerprint != g.Fingerprint() {
					// A delta outdated this trajectory. Keep it as the top-up
					// source and fall through to the miss path, which records
					// its replacement redeeming the still-valid steps.
					stale = ent.traj
					delete(e.cache, key)
					e.mu.Unlock()
					continue
				}
				ent.lastUsed = e.cfg.now()
				e.mu.Unlock()
				return ent, true, nil
			default:
				// Recording in flight: join the batch and split the bill. The
				// recording closes ready under e.mu, so this join lands before
				// the sharer count is read.
				if q.MaxCost > 0 && q.MaxCost < int64(key.Budget)/int64(ent.sharers+1) {
					e.mu.Unlock()
					return nil, false, fmt.Errorf("%w: MaxCost %d, trajectory budget %d", ErrQueryBudget, q.MaxCost, key.Budget)
				}
				ent.sharers++
				e.mu.Unlock()
				select {
				case <-ent.ready:
					return ent, ent.fromStore, nil
				case <-ctx.Done():
					return nil, false, ctx.Err()
				}
			}
		}
		// Miss: this query triggers a store reload or a recording. MaxCost
		// is checked against the recording budget unless the trajectory is
		// already persisted (a reload costs nothing).
		if q.MaxCost > 0 && q.MaxCost < int64(key.Budget) && !e.storeHas(key) {
			e.mu.Unlock()
			return nil, false, fmt.Errorf("%w: MaxCost %d, trajectory budget %d", ErrQueryBudget, q.MaxCost, key.Budget)
		}
		ent = &entry{ready: make(chan struct{}), sharers: 1}
		e.cache[key] = ent
		e.mu.Unlock()

		if e.reloadFromStore(key, ent) {
			return ent, true, nil
		}
		if stale == nil {
			// No stale in-memory trajectory to top up from; an older graph
			// version's persisted file (retained across deltas) serves just
			// as well.
			stale = e.loadTopUpSource(key)
		}
		// record blocks through the batching window and the fleet run, and
		// closes ent.ready before returning; co-batched queries wake with us.
		e.record(ctx, key, ent, stale)
		return ent, false, nil
	}
}

// storeHas reports whether the key's trajectory is persisted, and still
// fresh, for the currently served graph version. Called with e.mu held — it
// is a single stat, only on the rare miss-with-MaxCost path.
func (e *Engine) storeHas(key store.Key) bool {
	if e.cfg.Store == nil {
		return false
	}
	key.GraphVersion = e.Graph().Version()
	fi, err := e.cfg.Store.Stat(e.cfg.Name, key)
	return err == nil && fi.Mode().IsRegular() && !e.expired(fi.ModTime())
}

// reloadFromStore tries to complete a just-published in-flight entry from
// the persistent store instead of walking. On success every waiter wakes to
// a zero-cost cache hit — the evicted-then-requested path that makes
// eviction safe and restarts cheap.
func (e *Engine) reloadFromStore(key store.Key, ent *entry) bool {
	if e.cfg.Store == nil {
		return false
	}
	traj, fi := e.loadEntry(key)
	if traj == nil {
		return false
	}
	e.mu.Lock()
	e.stats.StoreLoads++
	e.completeLoaded(ent, traj, fi.Size(), fi.ModTime())
	e.mu.Unlock()
	e.notifyCached()
	return true
}

// loadEntry reads the persisted trajectory recorded on the engine's current
// graph version, with its file's metadata. It returns a nil trajectory if
// the file is missing, past the freshness TTL, corrupt, or recorded against
// a different graph state (counting the last two as store errors).
func (e *Engine) loadEntry(key store.Key) (*core.Trajectory, fs.FileInfo) {
	g := e.Graph()
	key.GraphVersion = g.Version()
	fi, err := e.cfg.Store.Stat(e.cfg.Name, key)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			e.countStoreError()
		}
		return nil, nil
	}
	if e.expired(fi.ModTime()) {
		return nil, nil // the caller re-records from the upstream instead
	}
	traj, err := e.cfg.Store.Load(e.cfg.Name, key, e.ownLabels(g))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			e.countStoreError()
		}
		return nil, nil
	}
	if e.admit(traj, g) != nil {
		e.countStoreError()
		return nil, nil
	}
	return traj, fi
}

// admit is the identity check every trajectory that was not recorded here
// passes before it is served — a store reload, a warm start or a peer's
// import. It returns an error wrapping ErrBadTrajectory unless traj was
// recorded on g, the served graph, at this engine's burn-in. An engine that
// records g itself binds an admitted trajectory to g's labels; one that
// records through a SourceFactory leaves it bound to the labels its file
// carries.
func (e *Engine) admit(traj *core.Trajectory, g *graph.Graph) error {
	if traj.GraphVersion != g.Version() || traj.GraphFingerprint != g.Fingerprint() {
		// Hard identity check: the header's delta-log version and content
		// fingerprint must both match the served graph. This replaces the old
		// |V|/|E| prior heuristic, which an equal-sized but rewired graph
		// (exactly what edge churn produces) would slip past.
		return fmt.Errorf("%w: recorded on graph version %d fingerprint %x, this engine serves version %d fingerprint %x",
			ErrBadTrajectory, traj.GraphVersion, traj.GraphFingerprint, g.Version(), g.Fingerprint())
	}
	if traj.BurnIn != e.burnIn {
		// Recorded under a different burn-in (the server's -burnin changed,
		// or the measured mixing time moved with a new graph build): not
		// the trajectory this engine would record, so serving it would be
		// silently inconsistent with fresh recordings at sibling keys.
		return fmt.Errorf("%w: recorded burn-in %d, this engine records at %d",
			ErrBadTrajectory, traj.BurnIn, e.burnIn)
	}
	if lr := e.ownLabels(g); lr != nil {
		traj.BindLabels(lr)
	}
	return nil
}

// ownLabels returns the labels an admitted trajectory is bound to in place
// of those its file embeds, or nil to keep the file's. An in-memory
// engine's recordings read g's own labels (deltas touch edges, never
// labels), so rebinding to them lets replays run at CSR speed instead of
// through the file's label store, and a reload from the store need not
// parse the file's label sections at all. An upstream's recordings read the
// upstream's labels, which g, a skeleton that only has to match its node
// count, need not carry: those keep the labels their file embeds, as
// store.Detach leaves a fresh recording.
func (e *Engine) ownLabels(g *graph.Graph) core.LabelReader {
	if e.cfg.SourceFactory != nil {
		return nil
	}
	return g
}

// expired reports whether a trajectory recorded at recorded has outlived
// the freshness TTL. Only recordings through an upstream source age (see
// Config.TTL).
func (e *Engine) expired(recorded time.Time) bool {
	return e.cfg.SourceFactory != nil && e.cfg.TTL > 0 && e.cfg.now().Sub(recorded) > e.cfg.TTL
}

// loadTopUpSource looks for the newest persisted trajectory at key's
// configuration recorded on an OLDER graph version — the per-version
// retention that turns a delta into an incremental top-up instead of a full
// re-recording. The returned trajectory needs no trust: the top-up validates
// every recorded response against the current graph before redeeming it. A
// file past the freshness TTL is no source: its responses are what the
// re-recording must buy again.
func (e *Engine) loadTopUpSource(key store.Key) *core.Trajectory {
	if e.cfg.Store == nil {
		return nil
	}
	keys, err := e.cfg.Store.Keys(e.cfg.Name)
	if err != nil {
		e.countStoreError()
		return nil
	}
	cur := e.Graph().Version()
	var best store.Key
	found := false
	for _, k := range keys {
		key.GraphVersion = k.GraphVersion // same configuration, any version
		if k != key || k.GraphVersion >= cur {
			continue
		}
		if !found || k.GraphVersion > best.GraphVersion {
			best, found = k, true
		}
	}
	if !found {
		return nil
	}
	if fi, err := e.cfg.Store.Stat(e.cfg.Name, best); err == nil && e.expired(fi.ModTime()) {
		return nil
	}
	traj, err := e.cfg.Store.Load(e.cfg.Name, best, nil)
	if err != nil {
		e.countStoreError()
		return nil
	}
	return traj
}

// record waits out the batching window, runs the fleet recording, publishes
// the result to every query waiting on ent, and persists it to the store
// (when configured). When stale carries an outdated trajectory at the same
// configuration, the recording is an incremental top-up: bit-identical to a
// fresh walk on the current graph, but paying upstream only for the steps
// the graph deltas invalidated. The recording itself is not bound to the
// triggering query's context: co-batched queries are still waiting on it.
func (e *Engine) record(ctx context.Context, key store.Key, ent *entry, stale *core.Trajectory) {
	if e.cfg.BatchWindow > 0 {
		select {
		case <-time.After(e.cfg.BatchWindow):
		case <-ctx.Done():
			// The triggering client gave up; run anyway for any co-batched
			// queries — the window already elapsed for them too.
		}
	}

	// Snapshot the served graph once: a delta applied mid-recording must not
	// tear this walk across versions.
	g := e.Graph()
	src := osn.Source(osn.NewGraphSource(g))
	if e.cfg.SourceFactory != nil {
		src = e.cfg.SourceFactory(g)
	}
	scfg := osn.Config{}
	if e.pool.Nodes() == g.NumNodes() {
		scfg.Pool = e.pool
	}
	s, err := osn.NewSessionFrom(src, scfg)
	var traj *core.Trajectory
	var topUp core.TopUpStats
	toppedUp := false
	if err == nil {
		// A source carrying its own persistent response cache (e.g. the
		// httpsrc .osnc log) prepays everything it already holds; a top-up's
		// own Prepay below merges over it, later call winning per node.
		if p, ok := src.(osn.SessionPrimer); ok {
			p.PrimeSession(s)
		}
		seed := stats.Derive(key.Seed, "serve/trajectory")
		opts := core.Options{
			BurnIn:       e.burnIn,
			Rng:          stats.NewSeedSequence(seed).NextRand(),
			Start:        -1,
			BudgetDriven: true,
			Walkers:      key.Walkers,
			Seed:         stats.Derive(seed, "fleet"),
		}
		if stale != nil && stale.NumNodes == g.NumNodes() {
			traj, topUp, err = core.ResumeRecording(s, g, stale, key.Budget, opts)
			toppedUp = err == nil
		} else {
			traj, err = core.RecordTrajectory(s, key.Budget, opts)
		}
		// All metered access is over: hand the session's pooled accounting
		// arrays to the next recording. The trajectory's bound label reads
		// stay valid after Release (and queries rebind to the graph anyway).
		s.Release()
	}
	// enc is the recording's .osnt layout: its size is the cache weight,
	// and the eager save below writes it without computing it again.
	var enc *store.Encoding
	if err == nil {
		// Stamp the graph identity the file header and the staleness checks
		// key on (ResumeRecording already stamps; fresh recordings here).
		traj.GraphVersion = g.Version()
		traj.GraphFingerprint = g.Fingerprint()
		if e.cfg.SourceFactory != nil {
			// Bound to its recording session, the trajectory would keep the
			// upstream source and its response cache reachable for as long
			// as it stays cached: bind it to the labels its file embeds.
			enc = store.Detach(traj)
		} else {
			enc = store.Encode(traj)
		}
	}

	persist := err == nil && e.cfg.Store != nil
	e.mu.Lock()
	ent.traj = traj
	ent.err = err
	ent.lastUsed = e.cfg.now()
	if err == nil {
		ent.bytes = enc.Size()
		ent.dirty = persist
		ent.recorded = ent.lastUsed
		e.stats.Recordings++
		if toppedUp {
			ent.staleSteps = topUp.StaleSteps
			e.stats.TopUps++
			e.stats.TopUpSavedCalls += topUp.PrepaidHits
			e.stats.UpstreamCalls += topUp.ChargedCalls
		} else {
			e.stats.UpstreamCalls += traj.APICalls
		}
	} else {
		// Failed recordings answer their waiters but are not kept for later
		// queries — those should retry with a fresh walk.
		if e.cache[key] == ent {
			delete(e.cache, key)
		}
	}
	// Closed under the lock: every join in acquire happens before it, so
	// the sharer count the waiters split the bill by is final.
	close(ent.ready)
	e.mu.Unlock()
	if err == nil {
		if persist {
			// Persist eagerly so even an ungraceful death keeps the walk;
			// failures stay dirty and are retried by Flush at shutdown.
			if e.saveItem(key, ent, enc) == nil {
				// The new version's file supersedes the older ones it was (or
				// could have been) topped up from; only now is it safe to
				// retire them.
				e.pruneSuperseded(key, traj.GraphVersion)
			}
		}
		e.notifyCached()
	}
}

// pruneSuperseded removes persisted trajectories at key's configuration
// recorded on graph versions older than version — they were retained as
// top-up sources and a newer file now fills that role.
func (e *Engine) pruneSuperseded(key store.Key, version uint64) {
	keys, err := e.cfg.Store.Keys(e.cfg.Name)
	if err != nil {
		e.countStoreError()
		return
	}
	for _, k := range keys {
		key.GraphVersion = k.GraphVersion // same configuration, any version
		if k != key || k.GraphVersion >= version {
			continue
		}
		if err := e.cfg.Store.Remove(e.cfg.Name, k); err != nil {
			e.countStoreError()
		}
	}
}
