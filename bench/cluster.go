package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/graph/snapshot"
	"repro/internal/osn"
	"repro/internal/osn/httpsrc"
	"repro/internal/osn/httpsrc/faultsim"
	"repro/internal/serve"
	"repro/internal/store"
)

// server is one HTTP listener of the topology on a loopback port.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener and every connection and waits for Serve to
// return.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// replica is one serve process stand-in: a Workspace over its own store
// directory behind its own listener.
type replica struct {
	ws       *serve.Workspace
	srv      *server
	storeDir string
	// snapPath is the replica's .osnb when PATCHes log .osnd segments
	// beside it (churn-topup only).
	snapPath string
}

// cluster is the deployed topology: replicas behind one gateway.
type cluster struct {
	replicas []*replica
	gw       *gateway.Gateway
	front    *server
}

// stage writes the files a set-up starts from, outside the timed set-up:
// each replica's copy of the graph snapshot.
func stage(in *inputs, dir string) error {
	for i := 0; i < replicas; i++ {
		rdir := filepath.Join(dir, fmt.Sprintf("r%d", i))
		if err := os.MkdirAll(rdir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(rdir, graphName+snapshot.Ext), in.snapshot, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// newCluster brings the topology up in dir (prepared by stage): every
// replica loads the graph from its snapshot, as cmd/serve -graph does, into
// a fresh workspace configured like cmd/serve's defaults, then the gateway
// starts in front. tr, when non-nil, wraps every handler and the gateway's
// backend client with span recording; src, when non-nil, is the replicas'
// recording source factory.
func newCluster(w *workload, in *inputs, dir string, tr *tracer, src func(*graph.Graph) osn.Source) (*cluster, error) {
	c := &cluster{}
	urls := make([]string, 0, replicas)
	for i := 0; i < replicas; i++ {
		rdir := filepath.Join(dir, fmt.Sprintf("r%d", i))
		r := &replica{storeDir: filepath.Join(rdir, "store")}
		st, err := store.NewDir(r.storeDir)
		if err != nil {
			c.close()
			return nil, err
		}
		ws, err := serve.NewWorkspace(serve.WorkspaceConfig{Store: st, CacheBytes: w.cacheBytes})
		if err != nil {
			c.close()
			return nil, err
		}
		opts := serve.GraphOptions{
			BurnIn:        w.burnIn,
			Budget:        w.budget,
			Walkers:       w.walkers,
			BatchWindow:   batchWindow,
			TTL:           cacheTTL,
			SourceFactory: src,
		}
		snap := filepath.Join(rdir, graphName+snapshot.Ext)
		g, err := snapshot.Load(snap)
		if err != nil {
			c.close()
			return nil, err
		}
		if w.churn {
			r.snapPath = snap
			opts.SnapshotPath = snap
			opts.CompactSegments = compactSegments
		}
		ws.ExpectGraphs(1)
		if _, err := ws.AddGraph(graphName, g, &opts); err != nil {
			c.close()
			return nil, err
		}
		r.ws = ws
		h := serve.NewHandler(ws)
		if tr != nil {
			h = tr.middleware("serve", h)
		}
		if r.srv, err = listen(h); err != nil {
			c.close()
			return nil, err
		}
		c.replicas = append(c.replicas, r)
		urls = append(urls, r.srv.url)
	}
	cfg := gateway.Config{Replicas: urls}
	if tr != nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: &tracedTransport{t: tr, base: http.DefaultTransport}}
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = gw
	h := gw.Handler()
	if tr != nil {
		h = tr.middleware("gateway", h)
	}
	if c.front, err = listen(h); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close stops every listener of the topology.
func (c *cluster) close() {
	if c.front != nil {
		c.front.close()
	}
	for _, r := range c.replicas {
		if r.srv != nil {
			r.srv.close()
		}
	}
}

// prerecord records every pre-recorded key through the gateway, so each
// lands on its owning replica as it would in service. Two workers post
// concurrently, like the load clients.
func (c *cluster) prerecord(client *http.Client, in *inputs) error {
	var next atomic.Int64
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(in.keySeeds) {
					return
				}
				ans, err := postEstimate(client, c.front.url, in.bodies[k], nil)
				if err == nil {
					err = checkBatch(ans, in)
				}
				if err != nil {
					errs[i] = fmt.Errorf("recording key %d: %w", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// engineTotals sums the engine counters of every replica.
func (c *cluster) engineTotals() serve.Stats {
	var t serve.Stats
	for _, r := range c.replicas {
		for _, gi := range r.ws.List() {
			s := gi.Stats
			t.Queries += s.Queries
			t.CacheHits += s.CacheHits
			t.Recordings += s.Recordings
			t.UpstreamCalls += s.UpstreamCalls
			t.StoreLoads += s.StoreLoads
			t.StoreSaves += s.StoreSaves
			t.StoreErrors += s.StoreErrors
			t.Deltas += s.Deltas
			t.TopUps += s.TopUps
			t.TopUpSavedCalls += s.TopUpSavedCalls
		}
	}
	return t
}

// cachedBytes sums the replicas' trajectory-cache weights.
func (c *cluster) cachedBytes() int64 {
	var total int64
	for _, r := range c.replicas {
		total += r.ws.CachedBytes()
	}
	return total
}

// storeFile finds the replica file of a trajectory key ("" if none holds
// it any more).
func (c *cluster) storeFile(key string) string {
	for _, r := range c.replicas {
		p := filepath.Join(r.storeDir, graphName, key)
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return ""
}

// postEstimate sends one estimate request and decodes the batch answer.
// hdr, when non-nil, adds request headers (the span id of a traced run).
func postEstimate(client *http.Client, base string, body []byte, hdr http.Header) (*batchAnswer, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/estimate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var ans batchAnswer
	if err := json.Unmarshal(raw, &ans); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &ans, nil
}

// crawlSources is cold-crawl's recording source factory: every recording
// gets a fresh httpsrc client (no .osnc, memory cache only) against the one
// faultsim upstream, as a replica crawling a live API without a persistent
// cache would.
type crawlSources struct {
	cfg   httpsrc.Config
	seeds *seedStream // backoff-jitter seed of each client
	// timing, when set, wraps each client to time the osn.Source boundary
	// and keeps the clients for their counters (traced runs only).
	timing *sourceTiming

	mu      sync.Mutex
	clients []*httpsrc.Client
}

// upstreamClient is shared by every crawl client. Its idle pool covers the
// most concurrent upstream requests (2 recordings x 2 walkers) with room to
// spare, so crawls reuse connections instead of exhausting loopback ports.
var upstreamClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

// newCrawlSources configures crawl clients against the upstream at url,
// with the workload's fault-tolerance settings.
func newCrawlSources(url string, seeds *seedStream, timing *sourceTiming) *crawlSources {
	return &crawlSources{
		cfg: httpsrc.Config{
			BaseURL:    url,
			Backoff:    2 * time.Millisecond,
			MaxBackoff: 20 * time.Millisecond,
			HTTPClient: upstreamClient,
		},
		seeds:  seeds,
		timing: timing,
	}
}

// factory implements serve.GraphOptions.SourceFactory.
func (cs *crawlSources) factory(g *graph.Graph) osn.Source {
	cfg := cs.cfg
	cfg.Seed = cs.seeds.next()
	c, err := httpsrc.New(cfg)
	if err != nil {
		return failedSource{n: g.NumNodes(), m: g.NumEdges(), err: err}
	}
	if cs.timing == nil {
		return c
	}
	cs.mu.Lock()
	cs.clients = append(cs.clients, c)
	cs.mu.Unlock()
	return &timedSource{Client: c, t: cs.timing}
}

// stats sums the kept clients' counters (traced runs only).
func (cs *crawlSources) stats() httpsrc.Stats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var t httpsrc.Stats
	for _, c := range cs.clients {
		s := c.Stats()
		t.UpstreamRequests += s.UpstreamRequests
		t.Fetches += s.Fetches
		t.Retries += s.Retries
		t.Throttled += s.Throttled
	}
	return t
}

// faultSchedule is cold-crawl's upstream fault script: a 503 every 199th
// request and a connection reset every 1999th. The client's retries absorb
// both, so no answer fails.
func faultSchedule(call int64, _ string, _ graph.Node) *faultsim.Fault {
	switch {
	case call%1999 == 0:
		return &faultsim.Fault{Reset: true}
	case call%199 == 0:
		return &faultsim.Fault{Status: http.StatusServiceUnavailable}
	}
	return nil
}

// failedSource stands in for a crawl client that could not be built: its
// recording fails, and the request that triggered it is counted failed.
type failedSource struct {
	n   int
	m   int64
	err error
}

func (f failedSource) NumNodes() int                              { return f.n }
func (f failedSource) NumEdges() int64                            { return f.m }
func (f failedSource) Neighbors(graph.Node) ([]graph.Node, error) { return nil, f.err }
func (f failedSource) Degree(graph.Node) (int, error)             { return 0, f.err }
func (f failedSource) Labels(graph.Node) []graph.Label            { return nil }
func (f failedSource) HasLabel(graph.Node, graph.Label) bool      { return false }
func (f failedSource) RandomNode(rng *rand.Rand) graph.Node       { return graph.Node(rng.Intn(f.n)) }
