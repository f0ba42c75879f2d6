package serve

import (
	"context"
	"os"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/osn/httpsrc"
	"repro/internal/osn/httpsrc/faultsim"
	"repro/internal/store"
)

// v2Query is the query whose trajectory testdata/v2.osnt holds, as the
// version 2 writer saved it: smallTestGraph(t, 70), burn-in 100, graph name
// "g".
var v2Query = Query{Kind: "size", Budget: 80, Walkers: 2, Seed: 5}

// TestFreshRecordingWeighsItsFile checks that a fresh recording's cache
// weight equals the length of the .osnt file its engine saves, for an
// in-memory recording and for one made through an upstream source, whose
// engine detaches it from its recording session.
func TestFreshRecordingWeighsItsFile(t *testing.T) {
	g := smallTestGraph(t, 70)
	up := faultsim.New(g)
	defer up.Close()
	c, err := httpsrc.New(httpsrc.Config{BaseURL: up.URL()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name    string
		factory func(*graph.Graph) osn.Source
	}{
		{"in-memory", nil},
		{"upstream", func(*graph.Graph) osn.Source { return c }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := testStore(t)
			e := testEngine(t, g, Config{Name: "g", Store: st, SourceFactory: tc.factory})
			if _, err := e.Estimate(context.Background(), v2Query); err != nil {
				t.Fatal(err)
			}
			key := store.Key{Budget: v2Query.Budget, Walkers: v2Query.Walkers, Seed: v2Query.Seed}
			fi, err := st.Stat("g", store.Key{Budget: key.Budget, Walkers: key.Walkers, Seed: key.Seed, GraphVersion: g.Version()})
			if err != nil {
				t.Fatal(err)
			}
			e.mu.Lock()
			ent := e.cache[key]
			e.mu.Unlock()
			if ent == nil || ent.bytes != fi.Size() {
				t.Fatalf("cache entry %+v, the saved file holds %d bytes", ent, fi.Size())
			}
			if s := e.Stats(); s.StoreSaves != 1 || s.StoreErrors != 0 {
				t.Errorf("stats %+v, want one save and no store error", s)
			}
		})
	}
}

// TestEngineRerecordsOverVersion2File puts a version 2 .osnt of the queried
// key in an engine's store, written by that version's writer. The load
// refuses it, which counts one store error, and the engine answers by
// recording again, bit-identically to an engine with an empty store; the
// version 3 file it saves replaces the old one.
func TestEngineRerecordsOverVersion2File(t *testing.T) {
	g := smallTestGraph(t, 70)
	raw, err := os.ReadFile("testdata/v2.osnt")
	if err != nil {
		t.Fatal(err)
	}
	st := testStore(t)
	key := store.Key{Budget: v2Query.Budget, Walkers: v2Query.Walkers, Seed: v2Query.Seed, GraphVersion: g.Version()}
	if err := st.WriteRaw("g", key, raw); err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, g, Config{Name: "g", Store: st})
	ans, err := e.Estimate(context.Background(), v2Query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testEngine(t, g, Config{}).Estimate(context.Background(), v2Query)
	if err != nil {
		t.Fatal(err)
	}
	if ans.CacheHit || !reflect.DeepEqual(ans.Result, want.Result) || ans.APICalls != want.APICalls || ans.Samples != want.Samples {
		t.Errorf("answer over a version 2 file %+v, want a fresh recording's %+v", ans, want)
	}
	if s := e.Stats(); s.StoreErrors != 1 || s.Recordings != 1 || s.StoreLoads != 0 {
		t.Errorf("stats %+v, want one store error, one recording and no load", s)
	}
	if _, err := st.Load("g", key, nil); err != nil {
		t.Errorf("the re-recorded trajectory did not replace the version 2 file: %v", err)
	}
}
