package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/osn/httpsrc"
)

// spanHeader carries "<trace>:<parent span>" from one layer to the next.
const spanHeader = "X-Bench-Span"

// Span layers, outermost first.
const (
	layerLoadgen = "loadgen" // the benchmark client, request to decoded answer
	layerGateway = "gateway" // gateway.Handler
	layerHop     = "hop"     // one gateway-to-replica request, as the gateway's client sees it
	layerServe   = "serve"   // serve.NewHandler on a replica
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace, the id of its loadgen span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Layer  string `json:"layer"`
	Op     string `json:"op"` // "read" (POST /estimate) or "write" (PATCH)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRef is the part of a span that travels in a request context.
type spanRef struct{ id, trace uint64 }

type spanKey struct{}

// tracer records spans in memory while on; the benchmark's middleware and
// transport call it around every layer boundary, and it writes the spans
// out when the run ends.
type tracer struct {
	base time.Time
	on   atomic.Bool
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(layer, op string, parent spanRef) span {
	s := span{ID: t.next.Add(1), Parent: parent.id, Trace: parent.trace, Layer: layer, Op: op, Start: t.now()}
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	return s
}

func (t *tracer) end(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (s span) ref() spanRef { return spanRef{id: s.ID, trace: s.Trace} }

func (r spanRef) header() string { return fmt.Sprintf("%d:%d", r.trace, r.id) }

func parseSpanHeader(v string) (spanRef, bool) {
	a, b, ok := strings.Cut(v, ":")
	if !ok {
		return spanRef{}, false
	}
	tr, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return spanRef{id: id, trace: tr}, err1 == nil && err2 == nil
}

func opOf(method string) string {
	if method == http.MethodPatch {
		return "write"
	}
	return "read"
}

// middleware records a span around h for every request that carries a span
// header while tracing is on, and hands the span to h through the request
// context, where the gateway's backend requests pick it up.
func (t *tracer) middleware(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := t.begin(layer, opOf(r.Method), parent)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.ref())))
		t.end(s)
	})
}

// tracedTransport is the gateway's backend transport in traced runs: each
// request the gateway sends on behalf of a traced one is a hop span, ended
// when the gateway closes the response body, and carries the hop's id on.
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok || !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	s := tt.t.begin(layerHop, opOf(req.Method), parent)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, s.ref().header())
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.end(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.end(s) }}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats are the per-layer times derived from one window's spans.
type spanStats struct {
	// Per read request, in ms: the client's time outside the gateway, the
	// gateway's time outside its hops, the hops' time outside the serve
	// handler, and the serve handler's time.
	transport, gatewaySelf, hop, handler []float64
	// patch is the serve handler time of every replica's PATCH, in ms.
	patch []float64
	// violations lists spans that outlive their parent or layers whose
	// self time comes out negative.
	violations []string
}

// analyze derives the per-layer times and checks span nesting: every span
// lies inside its parent's interval, so every self time is non-negative.
func analyze(spans []span) spanStats {
	var st spanStats
	byID := make(map[uint64]span, len(spans))
	children := make(map[uint64][]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	bad := func(format string, args ...any) {
		if len(st.violations) < 10 {
			st.violations = append(st.violations, fmt.Sprintf(format, args...))
		}
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && (s.Start < p.Start || s.End > p.End) {
			bad("%s span %d [%d,%d] outlives its %s parent %d [%d,%d]", s.Layer, s.ID, s.Start, s.End, p.Layer, p.ID, p.Start, p.End)
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for _, root := range spans {
		if root.Layer != layerLoadgen {
			continue
		}
		gws := children[root.ID]
		if len(gws) != 1 {
			bad("request %d has %d gateway spans", root.ID, len(gws))
			continue
		}
		gw := gws[0]
		var hops, handler int64
		for _, h := range children[gw.ID] {
			hops += h.dur()
			for _, sv := range children[h.ID] {
				handler += sv.dur()
				if root.Op == "write" {
					st.patch = append(st.patch, ms(sv.dur()))
				}
			}
		}
		transport, self, hop := root.dur()-gw.dur(), gw.dur()-hops, hops-handler
		if transport < 0 || self < 0 || hop < 0 {
			bad("request %d: negative self time (transport %d, gateway %d, hop %d ns)", root.ID, transport, self, hop)
		}
		if root.Op != "read" {
			continue
		}
		st.transport = append(st.transport, ms(transport))
		st.gatewaySelf = append(st.gatewaySelf, ms(self))
		st.hop = append(st.hop, ms(hop))
		st.handler = append(st.handler, ms(handler))
	}
	return st
}

// sourceTiming counts and times calls across the osn.Source boundary of
// cold-crawl's crawl clients (traced runs only). Busy time sums over
// concurrent walkers.
type sourceTiming struct {
	neighbors, degree, labels, busyNs atomic.Int64
}

// timedSource wraps a crawl client to time the source boundary. Embedding
// keeps the client's osn.SessionPrimer, so resumed sessions are primed
// exactly as without the wrapper.
type timedSource struct {
	*httpsrc.Client
	t *sourceTiming
}

func (s *timedSource) since(start time.Time) { s.t.busyNs.Add(int64(time.Since(start))) }

func (s *timedSource) Neighbors(u graph.Node) ([]graph.Node, error) {
	defer s.since(time.Now())
	s.t.neighbors.Add(1)
	return s.Client.Neighbors(u)
}

func (s *timedSource) Degree(u graph.Node) (int, error) {
	defer s.since(time.Now())
	s.t.degree.Add(1)
	return s.Client.Degree(u)
}

func (s *timedSource) Labels(u graph.Node) []graph.Label {
	defer s.since(time.Now())
	s.t.labels.Add(1)
	return s.Client.Labels(u)
}

func (s *timedSource) HasLabel(u graph.Node, l graph.Label) bool {
	defer s.since(time.Now())
	s.t.labels.Add(1)
	return s.Client.HasLabel(u, l)
}
