package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/store"
)

// Trajectory is a recorded multi-walker sample stream: the system's most
// expensive artifact (every step was paid for with a metered API call) and
// the substrate every estimation task replays over. Record one with
// RecordTrajectory, answer heterogeneous questions from it with
// ReplayBatch, and persist it across process restarts with SaveTrajectory /
// LoadTrajectory — a loaded trajectory replays to byte-equal estimates.
type Trajectory = core.Trajectory

// RecordTrajectory runs one shared random walk over g (burn-in paid once;
// a fleet of opts.Walkers concurrent walkers when set) and returns the
// recorded trajectory for replay or persistence. It derives the walk
// exactly like EstimateManyPairs and EstimateBatch for the same options, so
// ReplayBatch over the result matches EstimateBatch answer for answer.
func RecordTrajectory(g *Graph, opts MultiPairOptions) (*Trajectory, error) {
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		return nil, fmt.Errorf("repro: graph has no edges to sample")
	}
	return recordShared(g, opts)
}

// ReplayBatch answers a heterogeneous batch of estimation tasks from an
// already recorded (or loaded) trajectory, at zero API cost: each request
// is dispatched through the estimation-task registry over the shared
// sample stream, exactly as EstimateBatch does after its recording step —
// answer for answer, bit for bit, including across a SaveTrajectory /
// LoadTrajectory round trip.
func ReplayBatch(t *Trajectory, reqs ...TaskRequest) (*BatchResult, error) {
	if t == nil || t.Samples() == 0 {
		return nil, fmt.Errorf("repro: ReplayBatch needs a recorded trajectory")
	}
	kinds, tasks, err := buildTasks(reqs)
	if err != nil {
		return nil, err
	}
	return replayTasks(t, kinds, tasks), nil
}

// SaveTrajectory writes t to path in the .osnt binary trajectory format
// (versioned, checksummed, self-contained — the file embeds the label sets
// of every node the walk references; see docs/API.md for the layout). The
// write is atomic: a crash mid-save never leaves a truncated trajectory
// behind. Persisting a trajectory preserves the walk's API spend across
// process restarts: LoadTrajectory plus ReplayBatch answers any question
// the original recording could, bit for bit, without touching the API.
func SaveTrajectory(path string, t *Trajectory) error {
	return store.Save(path, t)
}

// LoadTrajectory reads a .osnt trajectory written by SaveTrajectory. The
// loaded trajectory is bound to the label store the file carries, so it
// replays without the graph — and replays bit-identically, because those
// labels are the very bytes the recording session read. Corrupt or
// truncated files fail fast (checksum and structural validation), they are
// never partially loaded.
func LoadTrajectory(path string) (*Trajectory, error) {
	return store.Load(path)
}
