package hc3i

import (
	"fmt"

	"repro/internal/experiments"
)

// ExperimentInfo describes one registered experiment.
type ExperimentInfo struct {
	ID          string
	Title       string
	Description string
}

// ExperimentResult is a rendered experiment table (Render, CSV,
// Markdown).
type ExperimentResult = experiments.Table

// Experiments lists every experiment of the registry: the paper's
// Table 1, Figures 6-9 and Tables 2-3, then the ablations A1-A6.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, Description: e.Description})
	}
	return out
}

// RunExperiment executes one experiment. Quick mode shrinks scales so
// the whole registry runs in seconds; full mode uses the paper's
// parameters (100-node clusters, 10-hour virtual executions).
func RunExperiment(id string, seed uint64, quick bool) (*ExperimentResult, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("hc3i: unknown experiment %q (have %v)", id, experiments.IDs())
	}
	return e.Run(experiments.Config{Seed: seed, Quick: quick})
}

// RunnerOptions is the one description of a registry or matrix run —
// the type the internal runner itself consumes, so an option exists in
// exactly one struct. Workers bounds the number of concurrently
// simulated federations (each one is an isolated single-threaded
// simulation, so results are byte-identical to a sequential run of the
// same seed; <= 1 runs sequentially, DefaultWorkers picks one worker
// per CPU); Seed and Quick act exactly as in RunExperiment; Oracle,
// ChaosSeed, ChaosSeeds, ChaosOps, TraceFile and RunTimeout are
// documented on the fields.
type RunnerOptions = experiments.Config

// DefaultWorkers returns the machine-sized worker count.
func DefaultWorkers() int { return experiments.DefaultWorkers() }

// ExperimentRun pairs one experiment's result with its error.
type ExperimentRun = experiments.RunResult

// RunExperiments executes the experiments with the given IDs (all when
// ids is nil) through a bounded worker pool, returning one entry per
// requested ID in request order. Individual failures do not abort the
// batch.
func RunExperiments(opts RunnerOptions, ids []string) []ExperimentRun {
	return experiments.Run(opts, ids)
}

// MatrixScenarios lists the scenario names selected by a matrix filter
// (comma-separated dim=value constraints over topology, workload,
// failure and network; empty selects the full cross product).
func MatrixScenarios(filter string) ([]string, error) {
	scs, err := experiments.MatrixScenarios(filter)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(scs))
	for i, s := range scs {
		names[i] = s.Name()
	}
	return names, nil
}

// MatrixAxes renders the matrix dimensions and their values, one line
// per dimension.
func MatrixAxes() string { return experiments.MatrixAxes() }

// RunMatrix executes the scenario matrix (restricted by filter, empty =
// all) under HC3I and all three baseline protocols through the worker
// pool, and returns the rendered table: one row per (scenario,
// protocol) with forced/unforced CLCs, rollbacks, injected failures,
// the volatile-log high-water mark and the event count.
func RunMatrix(opts RunnerOptions, filter string) (*ExperimentResult, error) {
	scs, err := experiments.MatrixScenarios(filter)
	if err != nil {
		return nil, err
	}
	return experiments.RunMatrix(opts, scs)
}
