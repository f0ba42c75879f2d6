package osn

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/graph"
)

// Source is the raw graph-access backend a Session meters. It is the
// separation point between data access and estimation logic: the estimators
// only ever see a Session, and the Session only ever sees a Source, so the
// same pipeline runs against an in-memory graph, a latency-injected
// simulation of a remote OSN API, or (in principle) a real HTTP crawler.
//
// Implementations MUST be safe for concurrent use: one Session fans a
// multi-walker estimate out over many goroutines, all hitting the same
// Source through the shared response cache.
type Source interface {
	// NumNodes returns |V| — prior knowledge per the paper's assumption (2).
	NumNodes() int
	// NumEdges returns |E| — prior knowledge per the paper's assumption (2).
	NumEdges() int64
	// Neighbors returns the friend list of u, strictly increasing by node
	// ID: no repeats, and never u itself. The returned slice is shared and
	// must not be modified. Replays merge lists on the order (the
	// common-neighbour column, motif's triangle credit), and a walk picks a
	// friend by its index in the list, so an adapter whose upstream lists
	// friends in another order sorts them (see httpsrc).
	Neighbors(u graph.Node) ([]graph.Node, error)
	// Degree returns d(u). The metering Session currently serves degree
	// queries from the cached friend list (len(Neighbors)) rather than
	// this method, but implementations must still provide it: decorators
	// compose through it and future backends may answer it more cheaply
	// than a full friend-list fetch.
	Degree(u graph.Node) (int, error)
	// Labels returns the label set of u (profile fields).
	Labels(u graph.Node) []graph.Label
	// HasLabel reports whether u carries label l.
	HasLabel(u graph.Node, l graph.Label) bool
	// RandomNode returns a uniformly random node ID, used only for walk
	// starts (see Session.RandomNode).
	RandomNode(rng *rand.Rand) graph.Node
}

// SessionPrimer is implemented by Sources that carry previously paid
// responses across process restarts — e.g. the HTTP crawler backend's
// persistent .osnc response cache (internal/osn/httpsrc). The serving layer
// primes each new Session with those responses via Prepay, so a resumed
// recording is billed identically to an uninterrupted one but pays the
// upstream nothing for responses already on disk. PrimeSession must be
// called before any metered fetches on s.
type SessionPrimer interface {
	PrimeSession(s *Session)
}

// GraphSource is the in-memory Source: a fully materialized immutable
// graph.Graph. It is the backend of every simulation in this repository.
type GraphSource struct {
	G *graph.Graph
}

// NewGraphSource wraps g as a Source.
func NewGraphSource(g *graph.Graph) GraphSource { return GraphSource{G: g} }

// NumNodes implements Source.
func (gs GraphSource) NumNodes() int { return gs.G.NumNodes() }

// NumEdges implements Source.
func (gs GraphSource) NumEdges() int64 { return gs.G.NumEdges() }

// Neighbors implements Source.
func (gs GraphSource) Neighbors(u graph.Node) ([]graph.Node, error) { return gs.G.Neighbors(u), nil }

// Degree implements Source.
func (gs GraphSource) Degree(u graph.Node) (int, error) { return gs.G.Degree(u), nil }

// Labels implements Source.
func (gs GraphSource) Labels(u graph.Node) []graph.Label { return gs.G.Labels(u) }

// HasLabel implements Source.
func (gs GraphSource) HasLabel(u graph.Node, l graph.Label) bool { return gs.G.HasLabel(u, l) }

// RandomNode implements Source.
func (gs GraphSource) RandomNode(rng *rand.Rand) graph.Node {
	return graph.Node(rng.Intn(gs.G.NumNodes()))
}

// Latency decorates a Source with a per-fetch delay, simulating the network
// round trip of a real OSN API. Only the billable endpoints (Neighbors,
// Degree) are delayed; label reads ride along with a neighbor response and
// node sampling is local. Safe for concurrent use: each in-flight fetch
// sleeps independently, so W concurrent walkers overlap their waits — the
// effect the multi-walker engine exists to exploit.
type Latency struct {
	src    Source
	delay  time.Duration
	jitter time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// WithLatency wraps src so every fetch sleeps delay plus a uniform jitter in
// [0, jitter). seed drives the jitter stream.
func WithLatency(src Source, delay, jitter time.Duration, seed int64) *Latency {
	return &Latency{
		src:    src,
		delay:  delay,
		jitter: jitter,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

func (l *Latency) sleep() {
	d := l.delay
	if l.jitter > 0 {
		l.mu.Lock()
		d += time.Duration(l.rng.Int63n(int64(l.jitter)))
		l.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// NumNodes implements Source.
func (l *Latency) NumNodes() int { return l.src.NumNodes() }

// NumEdges implements Source.
func (l *Latency) NumEdges() int64 { return l.src.NumEdges() }

// Neighbors implements Source, sleeping before the fetch.
func (l *Latency) Neighbors(u graph.Node) ([]graph.Node, error) {
	l.sleep()
	return l.src.Neighbors(u)
}

// Degree implements Source, sleeping before the fetch.
func (l *Latency) Degree(u graph.Node) (int, error) {
	l.sleep()
	return l.src.Degree(u)
}

// Labels implements Source.
func (l *Latency) Labels(u graph.Node) []graph.Label { return l.src.Labels(u) }

// HasLabel implements Source.
func (l *Latency) HasLabel(u graph.Node, lb graph.Label) bool { return l.src.HasLabel(u, lb) }

// RandomNode implements Source.
func (l *Latency) RandomNode(rng *rand.Rand) graph.Node { return l.src.RandomNode(rng) }
