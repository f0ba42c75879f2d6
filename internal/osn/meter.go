package osn

import (
	mathbits "math/bits"
	"math/rand"

	"repro/internal/graph"
)

// meterFlushEvery is how many deferred global debits a Meter accumulates
// before forwarding them to the shared session counter in one atomic add.
// Amortizing the contended atomic over a batch is what lets W walkers on W
// cores scale on CPU-bound walks; 64 keeps the session counter at most a few
// cache-line bounces behind while staying negligible against any real budget.
const meterFlushEvery = 64

// Meter is a per-walker metered view of a shared Session: it implements the
// same API surface, but bills calls against its own budget slice with its
// own duplicate-detection cache. Because a walker's trajectory depends only
// on its private RNG stream, and a Meter's accounting depends only on that
// trajectory, per-walker sample counts — and therefore merged estimates —
// are deterministic regardless of goroutine scheduling.
//
// The shared Session still does the real work for metered sources: responses
// come from (and fill) its sharded cache, and its global counter tracks
// actual upstream traffic — a fetch another walker already cached is served
// without hitting the Source, and without a global charge. A Meter models
// one of W independent crawlers that each pay for their own API calls while
// sharing a response store, so Session.Calls() <= the sum of Meter.Calls()
// across walkers.
//
// Concurrent walkers must not serialize on cache-line traffic in the walk
// hot loop, so the fast path is kept off shared state:
//
//   - a per-walker read-through arena: once this meter has fetched a node,
//     repeat queries are answered from walker-local storage (an epoch-stamped
//     bitmap over the immutable graph for in-memory sources, a private
//     response map otherwise) without touching the session's fetched stamps
//     or shards. Reset invalidates the bitmap with a single epoch bump —
//     O(1), not O(|V|/64) — and pooled arenas carry their epoch across
//     sessions so reuse never needs a wipe;
//   - a fully walker-local fetch path: when the source is an in-memory
//     graph, a fetch reads the response straight from the immutable graph
//     and records it only in the local arena — zero shared-memory writes
//     per step. The session's global accounting (Calls, PrepaidHits) is
//     settled at Flush, which merges the local bitmap into the session's
//     shared epoch array and counts the nodes this walker was first to
//     fetch. Flush is idempotent and safe to call from concurrent
//     walkers; the fleet engine flushes every meter at each phase barrier,
//     so session-level accounting is settled — and schedule-independent —
//     whenever walkers are quiescent.
//
// A Meter is owned by exactly one goroutine and is NOT safe for concurrent
// use; concurrency safety lives in the Session underneath.
type Meter struct {
	s       *Session
	budget  int64
	calls   int64
	pending int64 // global debits not yet forwarded to s.calls

	// Walker-local read-through arena. bits+wordEpoch are used when the
	// session serves from an immutable in-memory graph (the response slice
	// needs no local copy): word w of bits is valid only while
	// wordEpoch[w] == epoch, so Reset is an epoch bump instead of a bitmap
	// wipe, and fetches touch no shared state — global accounting is
	// reconciled at Flush. arena stores the response slices otherwise.
	bits      []uint64
	wordEpoch []uint32
	epoch     uint32
	arena     map[graph.Node][]graph.Node
}

// Meter returns a fresh metering view over s with the given call budget
// (0 = unlimited). When the session is pooled, the meter's arena is drawn
// from the pool and returned by Session.Release.
func (s *Session) Meter(budget int64) *Meter {
	m := &Meter{s: s, budget: budget}
	if s.graphFast != nil {
		words := (s.NumNodes() + 63) / 64
		if s.pool != nil {
			var last uint32
			m.bits, m.wordEpoch, last = s.pool.getMeter(words)
			m.epoch = nextEpoch(last, func() { clear(m.wordEpoch) })
			s.meterMu.Lock()
			s.pooledMeters = append(s.pooledMeters, m)
			s.meterMu.Unlock()
		} else {
			m.bits = make([]uint64, words)
			m.wordEpoch = make([]uint32, words)
			m.epoch = 1
		}
	} else {
		m.arena = make(map[graph.Node][]graph.Node)
	}
	return m
}

// Reset zeroes the meter's accounting and local arena and installs a new
// budget — the per-walker analogue of Session.ResetAccounting, used at the
// burn-in/sampling boundary. The bitmap arena is invalidated by bumping the
// meter's epoch (O(1)). Pending global debits and unreconciled local fetches
// are discarded, because the caller resets the session's counters at the
// same barrier; call Flush first to settle them instead.
func (m *Meter) Reset(budget int64) {
	m.budget = budget
	m.calls = 0
	m.pending = 0
	if m.bits != nil {
		m.epoch = nextEpoch(m.epoch, func() { clear(m.wordEpoch) })
	}
	clear(m.arena)
}

// Flush settles this meter's deferred global accounting: batched debits are
// forwarded to the shared session counter, and (on the walker-local path)
// the local fetch bitmap is merged into the session's shared epoch array so
// Session.Calls/PrepaidHits reflect this walker's traffic. Flush is
// idempotent — nodes already merged are not recounted — and safe to call
// while other walkers run. Call it before reading Session.Calls() for
// accounting.
func (m *Meter) Flush() {
	if m.pending > 0 {
		m.s.calls.Add(m.pending)
		m.pending = 0
	}
	m.reconcile()
}

// reconcile merges the walker-local fetch bitmap into the session's shared
// epoch-stamped array, counting exactly the nodes this walker was first
// (across all walkers) to fetch in the current session epoch: one global
// call, and a prepaid hit when the node was prepaid.
func (m *Meter) reconcile() {
	if m.bits == nil {
		return
	}
	s := m.s
	ep := s.epoch.Load()
	var first, prepaidHits int64
	for w, stamp := range m.wordEpoch {
		if stamp != m.epoch || m.bits[w] == 0 {
			continue
		}
		word := m.bits[w]
		base := graph.Node(w << 6)
		for word != 0 {
			u := base + graph.Node(mathbits.TrailingZeros64(word))
			word &= word - 1
			if s.fetched[u].Swap(ep) != ep {
				first++
				if s.prepaid.Has(u) {
					prepaidHits++
				}
			}
		}
	}
	if first > 0 {
		s.calls.Add(first)
		if prepaidHits > 0 {
			s.prepaidHits.Add(prepaidHits)
		}
	}
}

// localHit returns u's response if this meter has already fetched it in its
// current accounting epoch.
func (m *Meter) localHit(u graph.Node) ([]graph.Node, bool) {
	if m.bits != nil {
		w := uint(u) >> 6
		if int(w) < len(m.bits) && m.wordEpoch[w] == m.epoch && m.bits[w]&(1<<(uint(u)&63)) != 0 {
			return m.s.graphFast.Neighbors(u), true
		}
		return nil, false
	}
	adj, ok := m.arena[u]
	return adj, ok
}

// markLocal records u's response in the walker-local arena, lazily clearing
// a bitmap word the first time it is touched in the current epoch.
func (m *Meter) markLocal(u graph.Node, adj []graph.Node) {
	if m.bits != nil {
		w := uint(u) >> 6
		if m.wordEpoch[w] != m.epoch {
			m.wordEpoch[w] = m.epoch
			m.bits[w] = 0
		}
		m.bits[w] |= 1 << (uint(u) & 63)
		return
	}
	m.arena[u] = adj
}

// Neighbors returns the friend list of u, charging one call against the
// meter's budget. Repeat queries for a node this meter already fetched are
// free, mirroring Session semantics — and are answered entirely from the
// walker-local arena, without touching shared state.
func (m *Meter) Neighbors(u graph.Node) ([]graph.Node, error) {
	if adj, ok := m.localHit(u); ok {
		return adj, nil
	}
	return m.fetch(u)
}

// fetch bills and serves a node the local arena does not cover. The meter's
// budget caps both of its paths, chosen by whether the source is the
// in-memory graph.
func (m *Meter) fetch(u graph.Node) ([]graph.Node, error) {
	if err := m.s.checkNode(u); err != nil {
		return nil, err
	}
	if m.budget > 0 && m.calls >= m.budget {
		return nil, ErrBudgetExhausted
	}
	m.calls++
	if m.bits != nil {
		// Fully walker-local: the response comes straight from the immutable
		// in-memory graph and is recorded only in the local arena. No shared
		// cache probe, no shared stamp write, no atomic — reconciliation with
		// the session's global accounting happens at Flush.
		adj := m.s.graphFast.Neighbors(u)
		m.markLocal(u, adj)
		return adj, nil
	}
	adj, hit := m.s.cached(u)
	if !hit {
		// An actual upstream request: defer the global debit, batched into
		// one atomic add per flush window.
		m.pending++
		if m.pending >= meterFlushEvery {
			m.Flush()
		}
		if pAdj, ok := m.s.redeemPrepaid(u); ok {
			adj = pAdj // billed identically, served without upstream
		} else {
			var err error
			adj, err = m.s.fill(u)
			if err != nil {
				return nil, err
			}
		}
	}
	m.markLocal(u, adj)
	return adj, nil
}

// Degree returns d(u), metered identically to Neighbors.
func (m *Meter) Degree(u graph.Node) (int, error) {
	adj, err := m.Neighbors(u)
	if err != nil {
		return 0, err
	}
	return len(adj), nil
}

// ChargeFlat bills n additional calls against the meter's budget and
// forwards them to the shared session's global accounting.
func (m *Meter) ChargeFlat(n int64) error {
	if n <= 0 {
		return nil
	}
	if m.budget > 0 && m.calls >= m.budget {
		return ErrBudgetExhausted
	}
	m.s.calls.Add(n)
	m.calls += n
	return nil
}

// NumNodes returns |V|.
func (m *Meter) NumNodes() int { return m.s.NumNodes() }

// NumEdges returns |E|.
func (m *Meter) NumEdges() int64 { return m.s.NumEdges() }

// Labels returns the label set of u, free of charge.
func (m *Meter) Labels(u graph.Node) []graph.Label { return m.s.Labels(u) }

// HasLabel reports whether u carries label l, free of charge.
func (m *Meter) HasLabel(u graph.Node, l graph.Label) bool { return m.s.HasLabel(u, l) }

// RandomNode returns a uniformly random node ID.
func (m *Meter) RandomNode(rng *rand.Rand) graph.Node { return m.s.RandomNode(rng) }

// Calls returns the calls billed to this meter so far.
func (m *Meter) Calls() int64 { return m.calls }
