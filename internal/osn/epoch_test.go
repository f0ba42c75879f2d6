package osn

import (
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestEpochResetCycles pins the epoch-reset contract on the in-memory fast
// path: every ResetAccounting opens a fresh accounting phase — previously
// fetched nodes are charged again, duplicates within a phase stay free, and
// the call counter restarts from zero — for many consecutive cycles, since
// the epoch array is never wiped between them.
func TestEpochResetCycles(t *testing.T) {
	t.Run("free-duplicates", func(t *testing.T) {
		g := completeGraph(t, 32)
		s, err := NewSession(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 10
		for cycle := 0; cycle < 4; cycle++ {
			for pass := 0; pass < 2; pass++ {
				for u := 0; u < n; u++ {
					if _, err := s.Neighbors(graph.Node(u)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := s.Calls(); got != n {
				t.Fatalf("cycle %d: Calls() = %d, want %d", cycle, got, n)
			}
			s.ResetAccounting()
			if s.Calls() != 0 {
				t.Fatalf("cycle %d: counter not zeroed by reset", cycle)
			}
		}
	})
}

// TestEpochResetNonGraphSource runs the same multi-cycle reset contract
// through a decorated (non-GraphSource) backend, exercising the sharded
// response cache alongside the epoch array.
func TestEpochResetNonGraphSource(t *testing.T) {
	g := completeGraph(t, 32)
	s, err := NewSessionFrom(WithLatency(NewGraphSource(g), 0, 0, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for cycle := 0; cycle < 3; cycle++ {
		for pass := 0; pass < 2; pass++ {
			for u := 0; u < n; u++ {
				adj, err := s.Neighbors(graph.Node(u))
				if err != nil {
					t.Fatal(err)
				}
				if len(adj) != g.NumNodes()-1 {
					t.Fatalf("node %d: %d neighbors, want %d", u, len(adj), g.NumNodes()-1)
				}
			}
		}
		if got := s.Calls(); got != n {
			t.Fatalf("cycle %d: Calls() = %d, want %d", cycle, got, n)
		}
		s.ResetAccounting()
	}
}

// TestEpochResetPrepaidCycles checks prepaid redemption against epoch resets:
// prepaid marks survive ResetAccounting (they describe which responses are
// carried over, not what this phase fetched), so every accounting phase
// redeems them afresh — billed like a fetch, counted in PrepaidHits, without
// touching the upstream Source.
func TestEpochResetPrepaidCycles(t *testing.T) {
	g := completeGraph(t, 16)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prepaid := map[graph.Node][]graph.Node{
		2: g.Neighbors(2),
		5: g.Neighbors(5),
	}
	s.Prepay(prepaid)
	for cycle := 0; cycle < 3; cycle++ {
		for u := range prepaid {
			if _, err := s.Neighbors(u); err != nil {
				t.Fatal(err)
			}
			// A second query in the same phase is a plain cache hit — not a
			// second redemption.
			if _, err := s.Neighbors(u); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.PrepaidHits(); got != int64(len(prepaid)) {
			t.Fatalf("cycle %d: PrepaidHits() = %d, want %d", cycle, got, len(prepaid))
		}
		if got := s.Calls(); got != int64(len(prepaid)) {
			t.Fatalf("cycle %d: Calls() = %d, want %d", cycle, got, len(prepaid))
		}
		s.ResetAccounting()
	}
}

// TestEpochWraparound drives the session epoch across the uint32 wraparound
// and checks stale stamps cannot alias a live epoch: the wrap falls back to
// a full wipe and restarts at epoch 1.
func TestEpochWraparound(t *testing.T) {
	g := completeGraph(t, 8)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.epoch.Store(math.MaxUint32)
	if _, err := s.Neighbors(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cached(1); !ok {
		t.Fatal("node 1 should be cached at the pre-wrap epoch")
	}
	s.ResetAccounting()
	if got := s.epoch.Load(); got != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", got)
	}
	if _, ok := s.cached(1); ok {
		t.Fatal("stale pre-wrap stamp survived the wraparound wipe")
	}
	if _, err := s.Neighbors(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Calls(); got != 1 {
		t.Fatalf("post-wrap refetch billed %d calls, want 1", got)
	}
}

// TestMeterEpochWraparound drives a meter's local-arena epoch across the
// uint32 wraparound: Reset must wipe the word stamps so pre-wrap local hits
// do not leak into the new phase.
func TestMeterEpochWraparound(t *testing.T) {
	g := completeGraph(t, 8)
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Meter(0)
	m.epoch = math.MaxUint32
	if _, err := m.Neighbors(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.localHit(3); !ok {
		t.Fatal("node 3 should be a local hit at the pre-wrap epoch")
	}
	m.Reset(0)
	if m.epoch != 1 {
		t.Fatalf("meter epoch after wraparound = %d, want 1", m.epoch)
	}
	if _, ok := m.localHit(3); ok {
		t.Fatal("stale pre-wrap local stamp survived the wraparound wipe")
	}
}

// TestEpochResetConcurrentWalkers runs the full fleet-shaped cycle —
// concurrent metered walkers, flush, reset, repeat — and asserts the
// session-level accounting is exact and schedule-independent in every
// cycle. On the walker-local fast path the session's counters are populated
// entirely by Flush-time reconciliation, so this is the test that pins the
// reconcile contract (run it under -race). Meters are reused across cycles,
// exercising the O(1) epoch-bump Reset of both session and arenas.
func TestEpochResetConcurrentWalkers(t *testing.T) {
	t.Run("free-duplicates", func(t *testing.T) {
		const (
			workers = 8
			span    = 20 // nodes per worker, overlapping by half
			stride  = 10
		)
		g := completeGraph(t, workers*stride+span)
		s, err := NewSession(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		meters := make([]*Meter, workers)
		for i := range meters {
			meters[i] = s.Meter(0)
		}
		// Worker i touches [i*stride, i*stride+span); the union is
		// [0, workers*stride+span-stride)... every node below the last
		// worker's end, i.e. (workers-1)*stride+span distinct nodes.
		distinct := int64((workers-1)*stride + span)
		for cycle := 0; cycle < 3; cycle++ {
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					m := meters[i]
					for pass := 0; pass < 2; pass++ {
						for u := i * stride; u < i*stride+span; u++ {
							if _, err := m.Neighbors(graph.Node(u)); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
			for _, m := range meters {
				m.Flush()
			}
			// Flush must be idempotent: a second flush recounts nothing.
			for _, m := range meters {
				m.Flush()
			}
			if got := s.Calls(); got != distinct {
				t.Fatalf("cycle %d: Calls() = %d, want %d (schedule-independent)", cycle, got, distinct)
			}
			var sum int64
			for i, m := range meters {
				// Each worker: span charged, span free local duplicates.
				if m.Calls() != span {
					t.Fatalf("cycle %d: meter %d billed %d, want %d", cycle, i, m.Calls(), span)
				}
				sum += m.Calls()
			}
			if s.Calls() > sum {
				t.Fatalf("cycle %d: session billed %d > sum of meters %d", cycle, s.Calls(), sum)
			}
			s.ResetAccounting()
			for _, m := range meters {
				m.Reset(0)
			}
		}
	})
}

// TestPoolSessionReuse checks the pooled lifecycle: Release hands the
// session's epoch array (and its meters' arenas) back, the next session
// reuses the same backing memory, and — because the epoch sequence continues
// rather than restarting — inherits none of the previous session's stamps.
func TestPoolSessionReuse(t *testing.T) {
	g := completeGraph(t, 64)
	p := NewPool(g.NumNodes())

	a, err := NewSession(g, Config{Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	aFetched := &a.fetched[0]
	am := a.Meter(0)
	aBits := &am.bits[0]
	if _, err := am.Neighbors(7); err != nil {
		t.Fatal(err)
	}
	am.Flush()
	if a.Calls() != 1 {
		t.Fatalf("session A Calls = %d, want 1", a.Calls())
	}
	a.Release()
	if a.fetched != nil || am.bits != nil {
		t.Fatal("Release must detach the pooled arrays")
	}

	b, err := NewSession(g, Config{Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	if &b.fetched[0] != aFetched {
		t.Fatal("session B did not reuse the pooled epoch array")
	}
	bm := b.Meter(0)
	if &bm.bits[0] != aBits {
		t.Fatal("meter B did not reuse the pooled arena")
	}
	// Node 7 was fetched by session A; B must charge it afresh.
	if _, ok := b.cached(7); ok {
		t.Fatal("session B inherited a stale cache stamp from A")
	}
	if _, err := bm.Neighbors(7); err != nil {
		t.Fatal(err)
	}
	bm.Flush()
	if b.Calls() != 1 {
		t.Fatalf("session B Calls = %d, want 1", b.Calls())
	}
	b.Release()
}

// TestPoolNodeCountMismatch checks a pool sized for a different graph is
// rejected at session construction.
func TestPoolNodeCountMismatch(t *testing.T) {
	g := completeGraph(t, 16)
	if _, err := NewSession(g, Config{Pool: NewPool(8)}); err == nil {
		t.Fatal("want an error for a pool spanning the wrong node count")
	}
}

// TestPooledSessionConstantAllocs pins the pooling payoff: once the pool is
// warm, creating a session plus a walker meter, fetching, and releasing
// allocates a small constant number of objects — independent of |V|. Without
// the pool every estimate would allocate the O(|V|) epoch array and O(|V|/64)
// arenas anew.
func TestPooledSessionConstantAllocs(t *testing.T) {
	measure := func(n int) float64 {
		big := ringGraph(t, n)
		p := NewPool(n)
		return testing.AllocsPerRun(20, func() {
			s, err := NewSession(big, Config{Pool: p})
			if err != nil {
				t.Fatal(err)
			}
			m := s.Meter(0)
			if _, err := m.Neighbors(0); err != nil {
				t.Fatal(err)
			}
			m.Flush()
			s.Release()
		})
	}
	small := measure(1 << 10)
	large := measure(1 << 15)
	if large > small+2 {
		t.Errorf("warm pooled estimate allocates %.0f objects at |V|=32768 vs %.0f at |V|=1024 — pooling is leaking O(|V|) allocations", large, small)
	}
	t.Logf("warm pooled session allocations: %.0f (small) vs %.0f (large)", small, large)
}

// ringGraph builds a cycle on n nodes — large |V| without O(n^2) edges.
func ringGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(graph.Node(i), graph.Node((i+1)%n)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
