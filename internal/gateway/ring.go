package gateway

import (
	"sort"
	"strconv"
	"sync"
)

// fnv64 is FNV-1a over s: the ring's hash for both vnode points and
// trajectory keys. It is stable across processes and platforms, so every
// gateway instance over the same replica list computes the same ring.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// replica is one backend's membership record: its base URL plus the health
// state the prober and the proxy maintain.
type replica struct {
	url     string
	alive   bool
	fails   int    // consecutive probe failures
	lastErr string // last probe or proxy error, for /healthz
}

// point is one virtual node on the hash circle, owned by replicas[idx].
type point struct {
	hash uint64
	idx  int
}

// vnodes is the number of virtual points each alive replica owns on the
// hash ring; more spread keys more evenly at slightly more memory.
const vnodes = 64

// ring is a consistent-hash ring over the configured replicas with vnodes
// virtual points per ALIVE replica. Membership is fixed at construction;
// liveness changes (probe evictions, proxy transport errors, rejoins)
// rebuild the point set, so keys owned by a dead replica redistribute to the
// survivors and return when it rejoins.
type ring struct {
	mu       sync.Mutex
	replicas []*replica
	points   []point
}

// newRing builds a ring with every replica initially alive.
func newRing(urls []string) *ring {
	r := &ring{}
	for _, u := range urls {
		r.replicas = append(r.replicas, &replica{url: u, alive: true})
	}
	r.rebuildLocked()
	return r
}

// rebuildLocked recomputes the point set from the alive replicas; callers
// hold r.mu.
func (r *ring) rebuildLocked() {
	r.points = r.points[:0]
	for idx, rep := range r.replicas {
		if !rep.alive {
			continue
		}
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: fnv64(rep.url + "#" + strconv.Itoa(v)), idx: idx})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// owner returns the base URL of the alive replica owning key, or "" when
// every replica is down.
func (r *ring) owner(key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.points) == 0 {
		return ""
	}
	h := fnv64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.replicas[r.points[i].idx].url
}

// markDown evicts the replica at url from the ring (idempotent). It reports
// whether the call changed liveness — the caller counts evictions only on
// true transitions.
func (r *ring) markDown(url, reason string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rep := range r.replicas {
		if rep.url != url {
			continue
		}
		rep.lastErr = reason
		if !rep.alive {
			return false
		}
		rep.alive = false
		r.rebuildLocked()
		return true
	}
	return false
}

// markUp rejoins the replica at url (idempotent), clearing its failure
// streak. It reports whether the call changed liveness.
func (r *ring) markUp(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rep := range r.replicas {
		if rep.url != url {
			continue
		}
		rep.fails = 0
		rep.lastErr = ""
		if rep.alive {
			return false
		}
		rep.alive = true
		r.rebuildLocked()
		return true
	}
	return false
}

// recordFailure increments url's consecutive probe-failure streak and
// reports the new count; a success resets it via markUp.
func (r *ring) recordFailure(url, reason string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rep := range r.replicas {
		if rep.url == url {
			rep.fails++
			rep.lastErr = reason
			return rep.fails
		}
	}
	return 0
}

// alive returns the base URLs of the alive replicas, in configuration order.
func (r *ring) aliveURLs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var urls []string
	for _, rep := range r.replicas {
		if rep.alive {
			urls = append(urls, rep.url)
		}
	}
	return urls
}

// ReplicaStatus is one replica's row in the gateway's /healthz body.
type ReplicaStatus struct {
	// URL is the replica's configured base URL.
	URL string `json:"url"`
	// Alive reports whether the replica is in the ring.
	Alive bool `json:"alive"`
	// Fails is the consecutive probe-failure streak.
	Fails int `json:"fails"`
	// LastError is the most recent probe or proxy error ("" when healthy).
	LastError string `json:"last_error,omitempty"`
}

// status snapshots every replica's health row, in configuration order.
func (r *ring) status() []ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ReplicaStatus, 0, len(r.replicas))
	for _, rep := range r.replicas {
		out = append(out, ReplicaStatus{URL: rep.url, Alive: rep.alive, Fails: rep.fails, LastError: rep.lastErr})
	}
	return out
}
