// Package faultsim is the test double of the httpsrc upstream contract: an
// httptest server answering the meta/neighbors/degree/labels JSON endpoints
// from an in-memory graph, with a scriptable per-call fault schedule —
// added latency, 429 bursts with Retry-After, 5xx runs, connection resets,
// hangs past the client deadline, malformed JSON — and a call/byte ledger.
// Every robustness claim in the httpsrc fault-drill suite is pinned against
// this upstream rather than asserted in prose, and any test that needs a
// misbehaving OSN API can reuse it.
package faultsim

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
)

// Fault describes what one request suffers before (or instead of) its
// normal JSON answer. The zero value is a healthy response.
type Fault struct {
	// Latency is slept before anything else.
	Latency time.Duration
	// Status, when non-zero, is returned instead of the JSON answer
	// (e.g. 429, 500, 503).
	Status int
	// RetryAfter sets the Retry-After header (whole seconds, rounded up)
	// on a Status response — the upstream's throttling wish.
	RetryAfter time.Duration
	// Reset abruptly closes the connection without any HTTP response.
	Reset bool
	// Hang sleeps up to this long or until the client gives up, then
	// answers normally — the "server stopped responding" drill; pair it
	// with a client timeout shorter than the hang.
	Hang time.Duration
	// Malformed answers 200 with syntactically invalid JSON.
	Malformed bool
	// Friends, when set, rewrites the friend list a neighbors answer
	// carries: it gets node u and a copy of u's sorted list, and returns
	// the list to send — reversed, as an upstream listing friends by
	// recency would, or malformed.
	Friends func(u graph.Node, adj []graph.Node) []graph.Node
}

// Ledger is the upstream's request accounting: what the client actually
// cost it. Snapshot it with Upstream.Ledger.
type Ledger struct {
	// Calls counts every request that reached the handler.
	Calls int64
	// Meta, Neighbors, Degree and Labels split Calls per endpoint.
	Meta, Neighbors, Degree, Labels int64
	// Bytes is the total JSON payload bytes of successful answers.
	Bytes int64
	// PerNode counts neighbor fetches per node — the resume drills assert
	// zero re-fetches for previously paid nodes against this map.
	PerNode map[graph.Node]int64
}

// Schedule decides the fault of one request: call is the 1-based global
// request index, endpoint is "meta", "neighbors", "degree" or "labels",
// node is the addressed node (-1 for meta). Return nil for a healthy
// response. Schedules run under the upstream's lock — keep them pure.
type Schedule func(call int64, endpoint string, node graph.Node) *Fault

// Upstream is the fault-injecting test server. Create with New, stop with
// Close. Safe for concurrent use.
type Upstream struct {
	g   *graph.Graph
	srv *httptest.Server

	mu       sync.Mutex
	calls    int64
	schedule Schedule
	ledger   Ledger
}

// New starts an upstream serving g with no faults scheduled.
func New(g *graph.Graph) *Upstream {
	u := &Upstream{g: g, ledger: Ledger{PerNode: make(map[graph.Node]int64)}}
	u.srv = httptest.NewServer(http.HandlerFunc(u.handle))
	return u
}

// URL returns the upstream's base URL.
func (u *Upstream) URL() string { return u.srv.URL }

// Close shuts the server down.
func (u *Upstream) Close() { u.srv.Close() }

// SetSchedule installs (or, with nil, clears) the fault schedule.
func (u *Upstream) SetSchedule(s Schedule) {
	u.mu.Lock()
	u.schedule = s
	u.mu.Unlock()
}

// Ledger snapshots the request accounting.
func (u *Upstream) Ledger() Ledger {
	u.mu.Lock()
	defer u.mu.Unlock()
	l := u.ledger
	l.PerNode = make(map[graph.Node]int64, len(u.ledger.PerNode))
	for n, c := range u.ledger.PerNode {
		l.PerNode[n] = c
	}
	return l
}

// ResetLedger zeroes the accounting (the fault schedule is kept).
func (u *Upstream) ResetLedger() {
	u.mu.Lock()
	u.ledger = Ledger{PerNode: make(map[graph.Node]int64)}
	u.mu.Unlock()
}

// handle serves one request: parse, account, apply the scheduled fault,
// then answer from the graph.
func (u *Upstream) handle(w http.ResponseWriter, r *http.Request) {
	endpoint, node, ok := parsePath(r.URL.Path)
	if !ok {
		http.Error(w, "no such endpoint", http.StatusNotFound)
		return
	}
	if endpoint != "meta" && (node < 0 || int(node) >= u.g.NumNodes()) {
		http.Error(w, "node out of range", http.StatusNotFound)
		return
	}

	u.mu.Lock()
	u.calls++
	u.ledger.Calls++
	var fault *Fault
	if u.schedule != nil {
		fault = u.schedule(u.calls, endpoint, node)
	}
	switch endpoint {
	case "meta":
		u.ledger.Meta++
	case "neighbors":
		u.ledger.Neighbors++
		u.ledger.PerNode[node]++
	case "degree":
		u.ledger.Degree++
	case "labels":
		u.ledger.Labels++
	}
	u.mu.Unlock()

	if fault != nil {
		if fault.Latency > 0 {
			time.Sleep(fault.Latency)
		}
		if fault.Hang > 0 {
			select {
			case <-time.After(fault.Hang):
			case <-r.Context().Done():
				return
			}
		}
		if fault.Reset {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		if fault.Status != 0 {
			if fault.RetryAfter > 0 {
				secs := int64((fault.RetryAfter + time.Second - 1) / time.Second)
				w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			}
			http.Error(w, http.StatusText(fault.Status), fault.Status)
			return
		}
		if fault.Malformed {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"neighbors": [1, 2,`)
			return
		}
	}

	var payload any
	switch endpoint {
	case "meta":
		payload = map[string]any{"nodes": u.g.NumNodes(), "edges": u.g.NumEdges()}
	case "neighbors":
		adj := u.g.Neighbors(node)
		if fault != nil && fault.Friends != nil {
			adj = fault.Friends(node, slices.Clone(adj))
		}
		if adj == nil {
			adj = []graph.Node{}
		}
		payload = map[string]any{"neighbors": adj}
	case "degree":
		payload = map[string]any{"degree": u.g.Degree(node)}
	case "labels":
		ls := u.g.Labels(node)
		if ls == nil {
			ls = []graph.Label{}
		}
		payload = map[string]any{"labels": ls}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	u.mu.Lock()
	u.ledger.Bytes += int64(len(body))
	u.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// parsePath maps a request path onto (endpoint, node). meta carries node -1.
func parsePath(p string) (endpoint string, node graph.Node, ok bool) {
	p = strings.TrimPrefix(p, "/")
	if p == "meta" {
		return "meta", -1, true
	}
	head, tail, found := strings.Cut(p, "/")
	if !found {
		return "", 0, false
	}
	switch head {
	case "neighbors", "degree", "labels":
	default:
		return "", 0, false
	}
	id, err := strconv.Atoi(tail)
	if err != nil {
		return "", 0, false
	}
	return head, graph.Node(id), true
}
