package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/osn"
	"repro/internal/stats"
)

// fuzzReplays is every estimation kind the server dispatches, with the
// parameters that take each down a different replay path.
var fuzzReplays = []struct {
	kind   string
	params core.TaskParams
}{
	{"pairs", core.TaskParams{Pairs: fuzzPairs}},
	{"census", core.TaskParams{}},
	{"census", core.TaskParams{Top: 2}},
	{"size", core.TaskParams{}},
	{"motif", core.TaskParams{Motif: "wedges"}},
	{"motif", core.TaskParams{Motif: "wedges", Pairs: fuzzPairs}},
	{"motif", core.TaskParams{Motif: "triangles"}},
	{"motif", core.TaskParams{Motif: "triangles", Pairs: fuzzPairs}},
	{"assortativity", core.TaskParams{Variant: "degree"}},
	{"assortativity", core.TaskParams{Variant: "label"}},
}

var fuzzPairs = []graph.LabelPair{{T1: 1, T2: 1}, {T1: 1, T2: 2}}

// FuzzDecode feeds mutated .osnt images to Decode, the entry point of Load
// and of the replication pull path. The trailing CRC is recomputed so that
// mutations reach the parser instead of stopping at the checksum. Decode
// must return an error or a trajectory. Whatever it accepts, the reference
// decoder (reference_test.go) must accept too, with equal header fields,
// columns and label reads; every record must be one a walk could have
// recorded (walkViolation); and the trajectory must replay every kind
// through RunTasksFused, where a replay may fail, but only with an error.
// The seeds are fresh encodings of a few hundred bytes.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	g0, err := gen.BarabasiAlbert(30, 2, rng)
	if err != nil {
		f.Fatal(err)
	}
	g, err := gen.Apply(g0, &gen.GenderLabeler{PFemale: 0.3, Rng: rng})
	if err != nil {
		f.Fatal(err)
	}
	for walkers := 1; walkers <= 2; walkers++ {
		s, err := osn.NewSession(g, osn.Config{})
		if err != nil {
			f.Fatal(err)
		}
		traj, err := core.RecordTrajectory(s, 8, core.Options{
			BurnIn:  2,
			Rng:     stats.NewSeedSequence(3).NextRand(),
			Start:   -1,
			Walkers: walkers,
			Seed:    stats.Derive(3, "fleet"),
		})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, traj); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = append([]byte(nil), raw...)
		if len(raw) >= 4 {
			binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
		}
		traj, err := Decode(raw)
		if err != nil {
			return
		}
		ref, err := referenceDecode(raw)
		if err != nil {
			t.Fatalf("Decode accepts an image the reference decoder refuses: %v", err)
		}
		if d := sameDecode(traj, ref); d != "" {
			t.Fatalf("Decode and the reference decoder disagree: %s", d)
		}
		if v := walkViolation(traj); v != "" {
			t.Fatalf("Decode accepted an impossible record: %s", v)
		}
		tasks := make([]core.EstimationTask, len(fuzzReplays))
		for i, r := range fuzzReplays {
			spec, ok := core.LookupTask(r.kind)
			if !ok {
				t.Fatalf("kind %q is not registered", r.kind)
			}
			if tasks[i], err = spec.NewTask(r.params); err != nil {
				t.Fatalf("kind %q: %v", r.kind, err)
			}
		}
		core.RunTasksFused(traj, tasks)
	})
}
