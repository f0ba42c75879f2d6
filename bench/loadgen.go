package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loadgen is the benchmark's client: closed-loop readers that each send
// their next request when the previous answer arrives, plus, on
// churn-topup, one open-loop writer that sends PATCHes on a fixed
// schedule. The readers share two keep-alive connections to the gateway;
// the writer has its own, so a PATCH never queues behind a read.
type loadgen struct {
	w      *workload
	in     *inputs
	url    string
	client *http.Client
	writer *http.Client
	tr     *tracer
	log    *answerLog
	// readers are the closed-loop clients' key pickers, seeded per client
	// so one seed always replays the same key order.
	readers []func() []byte
	// written counts PATCHes sent so far across windows.
	written int
}

// reshuffleEvery is how many requests a Zipf client sends before it
// redraws which key holds which popularity rank.
const reshuffleEvery = 250

// newLoadgen builds one reader per client for a workload.
func newLoadgen(w *workload, in *inputs, url string, clients int, tr *tracer) *loadgen {
	lg := &loadgen{
		w: w, in: in, url: url, tr: tr, log: newAnswerLog(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		writer: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	var turn atomic.Int64
	fresh, clientSeeds := newSeedStream(in.root, "fresh"), newSeedStream(in.root, "clients")
	for i := 0; i < clients; i++ {
		rng := rand.New(rand.NewSource(clientSeeds.next()))
		var next func() []byte
		switch w.pick {
		case pickZipf:
			// Popularity ranks map to keys through a permutation that each
			// client redraws every reshuffleEvery requests, so a run's cost
			// averages over which keys are hot instead of resting on one draw.
			z := rand.NewZipf(rng, 1.1, 1, uint64(len(in.bodies)-1))
			perm := rng.Perm(len(in.bodies))
			sent := 0
			next = func() []byte {
				if sent++; sent%reshuffleEvery == 0 {
					perm = rng.Perm(len(perm))
				}
				return in.bodies[perm[z.Uint64()]]
			}
		case pickUniform:
			next = func() []byte { return in.bodies[rng.Intn(len(in.bodies))] }
		case pickRoundRobin:
			next = func() []byte { return in.bodies[int(turn.Add(1)-1)%len(in.bodies)] }
		case pickFresh:
			next = func() []byte { return w.body(in, fresh.next()) }
		}
		lg.readers = append(lg.readers, next)
	}
	return lg
}

// close drops the clients' idle connections.
func (lg *loadgen) close() {
	lg.client.CloseIdleConnections()
	lg.writer.CloseIdleConnections()
}

// window is what one phase of load measured.
type window struct {
	elapsed time.Duration
	// reads are the latencies (ms) of answered reads; readsTried counts
	// every read sent, readsFailed those that failed or were wrong.
	reads                   []float64
	readsTried, readsFailed int64
	// writes are PATCH latencies (ms) timed from when each was due; lags
	// are how late the writer sent each one (ms).
	writes                    []float64
	lags                      []float64
	writesTried, writesFailed int64
	// maxAPICalls is the largest api_calls any answer reported.
	maxAPICalls int64
	// recorded counts answers that were not cache hits.
	recorded int64
	// errs keeps the first few failures for the report.
	errs []string
}

// run drives load for d. When record is false (warm-up) nothing is kept
// and the writer stays idle.
func (lg *loadgen) run(d time.Duration, record bool) *window {
	win := &window{}
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, next := range lg.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var tried, failed, maxCalls, recorded int64
			var errs []string
			for time.Now().Before(deadline) {
				t0 := time.Now()
				ans, err := lg.read(next())
				ms := float64(time.Since(t0)) / 1e6
				if !record {
					continue
				}
				tried++
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, err.Error())
					}
					continue
				}
				lat = append(lat, ms)
				lg.log.add(ans)
				for _, a := range ans.Answers {
					maxCalls = max(maxCalls, a.APICalls)
				}
				if !ans.Answers[0].CacheHit {
					recorded++
				}
			}
			mu.Lock()
			win.reads = append(win.reads, lat...)
			win.readsTried += tried
			win.readsFailed += failed
			win.maxAPICalls = max(win.maxAPICalls, maxCalls)
			win.recorded += recorded
			win.errs = append(win.errs, errs...)
			mu.Unlock()
		}()
	}
	if record && lg.w.churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg.write(start, deadline, win, &mu)
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	return win
}

// read sends one estimate request (traced when tracing is on) and checks
// the answer's shape.
func (lg *loadgen) read(body []byte) (*batchAnswer, error) {
	var hdr http.Header
	var s span
	traced := lg.tr != nil && lg.tr.on.Load()
	if traced {
		s = lg.tr.begin(layerLoadgen, "read", spanRef{})
		hdr = http.Header{spanHeader: {s.ref().header()}}
	}
	ans, err := postEstimate(lg.client, lg.url, body, hdr)
	if traced {
		lg.tr.end(s)
	}
	if err == nil {
		err = checkBatch(ans, lg.in)
	}
	return ans, err
}

// write is churn-topup's open-loop writer: PATCH i is due writeEvery after
// PATCH i-1 was due, whatever the replicas are doing. Deltas chain, so a
// PATCH waits for the one before it; its latency counts from its due time,
// so that wait shows, and its lag is how late the writer itself sent it.
func (lg *loadgen) write(start, deadline time.Time, win *window, mu *sync.Mutex) {
	var lat, lags []float64
	var tried, failed int64
	var errs []string
	free := start // when the previous PATCH finished
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * writeEvery)
		if !due.Before(deadline) || lg.written >= len(lg.in.deltas) {
			break
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		lags = append(lags, float64(sent.Sub(maxTime(due, free)))/1e6)
		err := lg.patch(lg.in.deltas[lg.written])
		lg.written++
		free = time.Now()
		tried++
		if err != nil {
			failed++
			if len(errs) < 3 {
				errs = append(errs, "PATCH: "+err.Error())
			}
			continue
		}
		lat = append(lat, float64(free.Sub(due))/1e6)
	}
	mu.Lock()
	win.writes, win.lags = lat, lags
	win.writesTried, win.writesFailed = tried, failed
	win.errs = append(win.errs, errs...)
	mu.Unlock()
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// patch sends one PATCH /graphs/{name} through the gateway, which
// broadcasts it to every replica.
func (lg *loadgen) patch(body []byte) error {
	req, err := http.NewRequest(http.MethodPatch, lg.url+"/graphs/"+graphName, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	traced := lg.tr != nil && lg.tr.on.Load()
	var s span
	if traced {
		s = lg.tr.begin(layerLoadgen, "write", spanRef{})
		req.Header.Set(spanHeader, s.ref().header())
	}
	var raw []byte
	resp, err := lg.writer.Do(req)
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if traced {
		lg.tr.end(s)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return nil
}
