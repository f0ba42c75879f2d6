package osn

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// completeGraph builds K_n so every node has neighbors to hammer.
func completeGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := b.AddEdge(graph.Node(i), graph.Node(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSessionConcurrentDedup checks that concurrent goroutines fetching
// overlapping node sets bill each node at most once per goroutine and keep
// unique-node accounting consistent.
func TestSessionConcurrentDedup(t *testing.T) {
	const goroutines = 8
	g := completeGraph(t, 32)
	n := int64(g.NumNodes())
	s, err := NewSession(g, Config{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < g.NumNodes(); i++ {
				if _, err := s.Neighbors(graph.Node(i)); err != nil {
					t.Errorf("Neighbors(%d): %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := s.UniqueNodes(); got != n {
		t.Errorf("UniqueNodes = %d, want %d", got, n)
	}
	// At least one charge per distinct node; racing first-fetches may each
	// bill, but never more than one per goroutine per node.
	if calls := s.Calls(); calls < n || calls > n*goroutines {
		t.Errorf("Calls = %d, want in [%d, %d]", calls, n, n*goroutines)
	}
	// Once everything is cached, further queries are free.
	before := s.Calls()
	if _, err := s.Neighbors(3); err != nil {
		t.Fatal(err)
	}
	if s.Calls() != before {
		t.Error("cached query was charged")
	}
}

// TestMeterDeterministicUnderConcurrency runs W metered walkers doing fixed
// pseudo-random fetch sequences concurrently, twice, and asserts the
// per-meter bills are identical across runs — the schedule-independence
// the multi-walker engine relies on.
func TestMeterDeterministicUnderConcurrency(t *testing.T) {
	const walkers = 8
	g := completeGraph(t, 48)

	run := func() []int64 {
		s, err := NewSession(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// The budget must be below the node count: duplicate fetches are
		// locally free, so a meter that has fetched every node can never
		// spend further.
		const meterBudget = 40
		meters := make([]*Meter, walkers)
		for i := range meters {
			meters[i] = s.Meter(meterBudget)
		}
		var wg sync.WaitGroup
		for i, m := range meters {
			wg.Add(1)
			go func(i int, m *Meter) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i) * 7))
				for {
					_, err := m.Neighbors(graph.Node(rng.Intn(g.NumNodes())))
					if errors.Is(err, ErrBudgetExhausted) {
						return
					}
					if err != nil {
						t.Errorf("walker %d: %v", i, err)
						return
					}
				}
			}(i, m)
		}
		wg.Wait()
		out := make([]int64, walkers)
		for i, m := range meters {
			out[i] = m.Calls()
		}
		// The shared session only bills real upstream fetches, so it can
		// never exceed the sum of the per-meter bills.
		var sum int64
		for _, c := range out {
			sum += c
		}
		if s.Calls() > sum {
			t.Errorf("session Calls %d > summed meter calls %d", s.Calls(), sum)
		}
		return out
	}

	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("meter %d billed %d calls on run 1 but %d on run 2 (must be schedule-independent)", i, a[i], b[i])
		}
		if a[i] != 40 {
			t.Errorf("meter %d billed %d calls, want its full 40-call budget", i, a[i])
		}
	}
}

// TestMeterBudgetExact asserts a meter stops exactly at its budget and
// surfaces ErrBudgetExhausted afterwards, while locally-cached repeats stay
// free — on both fetch paths: the walker-local bitmap over an in-memory
// graph and the session's shared cache over any other source.
func TestMeterBudgetExact(t *testing.T) {
	g := completeGraph(t, 16)
	for _, src := range []Source{NewGraphSource(g), WithLatency(NewGraphSource(g), 0, 0, 1)} {
		s, err := NewSessionFrom(src, Config{})
		if err != nil {
			t.Fatal(err)
		}
		m := s.Meter(3)
		for i := 0; i < 3; i++ {
			if _, err := m.Neighbors(graph.Node(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Neighbors(graph.Node(9)); !errors.Is(err, ErrBudgetExhausted) {
			t.Errorf("%T: want ErrBudgetExhausted, got %v", src, err)
		}
		if err := m.ChargeFlat(1); !errors.Is(err, ErrBudgetExhausted) {
			t.Errorf("%T: flat charge past the budget: want ErrBudgetExhausted, got %v", src, err)
		}
		if m.Calls() != 3 {
			t.Errorf("%T: Calls=%d, want 3", src, m.Calls())
		}
		// A node this meter already paid for stays free after exhaustion.
		if _, err := m.Neighbors(graph.Node(0)); err != nil {
			t.Errorf("%T: locally cached call after exhaustion: %v", src, err)
		}
		m.Flush()
		if s.Calls() != 3 {
			t.Errorf("%T: session Calls=%d after flush, want 3", src, s.Calls())
		}
	}
}
