package main

import (
	"fmt"
	"math"
	"reflect"
	"sync"

	"repro/internal/core"
	"repro/internal/motif"
	"repro/internal/serve"
	"repro/internal/sizeest"
	"repro/internal/stats"
)

// pairRow is one label pair's estimates in a "pairs" answer.
type pairRow struct {
	T1        int                `json:"t1"`
	T2        int                `json:"t2"`
	Estimates map[string]float64 `json:"estimates"`
}

type sizeRow struct {
	Nodes      float64 `json:"nodes"`
	Edges      float64 `json:"edges"`
	MeanDegree float64 `json:"mean_degree"`
	Collisions int     `json:"collisions"`
}

type censusRow struct {
	T1       int     `json:"t1"`
	T2       int     `json:"t2"`
	Estimate float64 `json:"estimate"`
	Hits     int     `json:"hits"`
}

type motifRow struct {
	T1       *int    `json:"t1,omitempty"`
	T2       *int    `json:"t2,omitempty"`
	Estimate float64 `json:"estimate"`
}

type motifResult struct {
	Shape string     `json:"shape"`
	Rows  []motifRow `json:"rows"`
}

type assortResult struct {
	Variant     string  `json:"variant"`
	Coefficient float64 `json:"coefficient"`
	Used        int     `json:"used"`
	Skipped     int     `json:"skipped"`
}

// payload is the estimate content of one answer — what the bit-identity
// checks compare. Fields absent from a kind stay nil.
type payload struct {
	Kind   string        `json:"kind"`
	Pairs  []pairRow     `json:"pairs,omitempty"`
	Size   *sizeRow      `json:"size,omitempty"`
	Census []censusRow   `json:"census,omitempty"`
	Motif  *motifResult  `json:"motif,omitempty"`
	Assort *assortResult `json:"assortativity,omitempty"`
}

// wireAnswer is one answer of a POST /estimate batch response.
type wireAnswer struct {
	payload
	Error         string `json:"error"`
	APICalls      int64  `json:"api_calls"`
	CacheHit      bool   `json:"cache_hit"`
	GraphVersion  uint64 `json:"graph_version"`
	TrajectoryKey string `json:"trajectory_key"`
}

// batchAnswer is a POST /estimate batch response.
type batchAnswer struct {
	Answers []wireAnswer `json:"answers"`
}

// checkBatch verifies an answer's shape against the request's batch: one
// error-free answer per query, of the queried kind, with every pair and
// estimate present and finite, all from one trajectory.
func checkBatch(ans *batchAnswer, in *inputs) error {
	if len(ans.Answers) != len(in.queries) {
		return fmt.Errorf("%d answers for %d queries", len(ans.Answers), len(in.queries))
	}
	for i, a := range ans.Answers {
		q := in.queries[i]
		switch {
		case a.Error != "":
			return fmt.Errorf("query %d (%s): %s", i, q.Kind, a.Error)
		case a.Kind != q.Kind:
			return fmt.Errorf("query %d: answer kind %q, asked %q", i, a.Kind, q.Kind)
		case a.TrajectoryKey != ans.Answers[0].TrajectoryKey:
			return fmt.Errorf("query %d served from %s, query 0 from %s", i, a.TrajectoryKey, ans.Answers[0].TrajectoryKey)
		}
	}
	pairs := ans.Answers[0].Pairs
	if len(pairs) != len(in.pairs) {
		return fmt.Errorf("%d pair rows for %d pairs", len(pairs), len(in.pairs))
	}
	for i, p := range pairs {
		if p.T1 != int(in.pairs[i].T1) || p.T2 != int(in.pairs[i].T2) {
			return fmt.Errorf("pair row %d is (%d,%d), asked %v", i, p.T1, p.T2, in.pairs[i])
		}
		for _, m := range serve.Methods() {
			if v, ok := p.Estimates[m]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("pair %v: estimate %s missing or not finite", in.pairs[i], m)
			}
		}
	}
	return nil
}

// renderOutput maps one core replay result onto the wire payload, field for
// field as the serve handler renders it.
func renderOutput(kind string, out any) payload {
	p := payload{Kind: kind}
	switch r := out.(type) {
	case []core.PairEstimates:
		for _, pe := range r {
			p.Pairs = append(p.Pairs, pairRow{T1: int(pe.Pair.T1), T2: int(pe.Pair.T2), Estimates: map[string]float64{
				"NeighborSample-HH":      pe.NS.HH,
				"NeighborSample-HT":      pe.NS.HT,
				"NeighborExploration-HH": pe.NE.HH,
				"NeighborExploration-HT": pe.NE.HT,
				"NeighborExploration-RW": pe.NE.RW,
			}})
		}
	case sizeest.Result:
		p.Size = &sizeRow{Nodes: r.Nodes, Edges: r.Edges, MeanDegree: r.MeanDegree, Collisions: r.Collisions}
	case core.CensusResult:
		for _, pe := range r.Pairs {
			p.Census = append(p.Census, censusRow{T1: int(pe.Pair.T1), T2: int(pe.Pair.T2), Estimate: pe.Estimate, Hits: pe.Hits})
		}
	case motif.TaskResult:
		m := &motifResult{Shape: r.Shape, Rows: []motifRow{}}
		for _, row := range r.Rows {
			mr := motifRow{Estimate: row.Estimate}
			if row.Pair != nil {
				t1, t2 := int(row.Pair.T1), int(row.Pair.T2)
				mr.T1, mr.T2 = &t1, &t2
			}
			m.Rows = append(m.Rows, mr)
		}
		p.Motif = m
	case core.AssortativityResult:
		p.Assort = &assortResult{Variant: r.Variant, Coefficient: r.Coefficient, Used: r.Used, Skipped: r.Skipped}
	}
	return p
}

// renderServeAnswer maps an in-process engine answer onto the wire payload.
func renderServeAnswer(a *serve.Answer) payload {
	if a.Pairs == nil {
		return renderOutput(a.Kind, a.Result)
	}
	p := payload{Kind: a.Kind}
	for _, pa := range a.Pairs {
		p.Pairs = append(p.Pairs, pairRow{T1: int(pa.Pair.T1), T2: int(pa.Pair.T2), Estimates: pa.Estimates})
	}
	return p
}

// samePayloads compares answers bit for bit (JSON float encoding
// round-trips float64 exactly), naming the first query that differs.
func samePayloads(served []wireAnswer, want []payload) error {
	if len(served) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(served), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(served[i].payload, want[i]) {
			return fmt.Errorf("query %d (%s): served %+v, replay gives %+v", i, want[i].Kind, served[i].payload, want[i])
		}
	}
	return nil
}

// answerLog keeps the last answer per trajectory key seen in a measured
// window: the estimates the NRMSE is computed from, and the answers the
// bit-identity check samples.
type answerLog struct {
	mu    sync.Mutex
	byKey map[string][]wireAnswer
	order []string // keys in first-seen order, for deterministic sampling
}

func newAnswerLog() *answerLog { return &answerLog{byKey: make(map[string][]wireAnswer)} }

func (l *answerLog) add(ans *batchAnswer) {
	key := ans.Answers[0].TrajectoryKey
	l.mu.Lock()
	if _, seen := l.byKey[key]; !seen {
		l.order = append(l.order, key)
	}
	l.byKey[key] = ans.Answers
	l.mu.Unlock()
}

// nrmse is the mean over the queried pairs of the NeighborExploration-HH
// estimate's normalized root-mean-square error against the exact count,
// one estimate per distinct trajectory.
func (l *answerLog) nrmse(truth []float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum float64
	for i, t := range truth {
		var est []float64
		for _, key := range l.order {
			est = append(est, l.byKey[key][0].Pairs[i].Estimates["NeighborExploration-HH"])
		}
		sum += stats.NRMSE(est, t)
	}
	return sum / float64(len(truth))
}
