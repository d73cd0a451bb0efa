package hc3i

import (
	"fmt"
	"time"

	"repro/internal/experiments"
)

// ExperimentInfo describes one registered experiment.
type ExperimentInfo struct {
	ID          string
	Title       string
	Description string
}

// ExperimentResult is a rendered experiment table.
type ExperimentResult struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render formats the result as aligned text.
func (r *ExperimentResult) Render() string {
	t := experiments.Table{
		ID: r.ID, Title: r.Title, Headers: r.Headers, Rows: r.Rows, Notes: r.Notes,
	}
	return t.Render()
}

// CSV renders the result as comma-separated values for plotting.
func (r *ExperimentResult) CSV() string {
	t := experiments.Table{Headers: r.Headers, Rows: r.Rows}
	return t.CSV()
}

// Markdown renders the result as a GitHub-flavoured markdown table.
func (r *ExperimentResult) Markdown() string {
	t := experiments.Table{
		ID: r.ID, Title: r.Title, Headers: r.Headers, Rows: r.Rows, Notes: r.Notes,
	}
	return t.Markdown()
}

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
	tab, err := e.Run(experiments.Config{Seed: seed, Quick: quick})
	if err != nil {
		return nil, err
	}
	return resultOf(tab), nil
}

func resultOf(tab *experiments.Table) *ExperimentResult {
	return &ExperimentResult{
		ID: tab.ID, Title: tab.Title, Headers: tab.Headers, Rows: tab.Rows, Notes: tab.Notes,
	}
}

// RunnerOptions configures a parallel registry or matrix run: Workers
// bounds the number of concurrently simulated federations (each one is
// an isolated single-threaded simulation, so results are byte-identical
// to a sequential run of the same seed), Seed and Quick act exactly as
// in RunExperiment. Workers <= 1 runs sequentially; DefaultWorkers
// picks one worker per CPU.
type RunnerOptions struct {
	Workers int
	Seed    uint64
	Quick   bool
	// DenseDDVWire selects the dense DDV wire encoding (see
	// Config.DenseDDVWire); results are identical, only simulator
	// speed changes.
	DenseDDVWire bool
	// UnbatchedWire schedules every inter-cluster delivery as its own
	// engine event instead of coalescing same-pipe same-tick messages
	// into batched deliveries. Results are byte-identical to the
	// batched default; this is the reference wire the batching
	// differential suites diff against.
	UnbatchedWire bool
	// Oracle attaches the online protocol invariant checker to every
	// federation run (registry and matrix alike). Results are
	// byte-identical; a violated invariant fails the run with a
	// diagnostic naming the check and the virtual time instead.
	Oracle bool
	// ChaosSeed replays one adversarial schedule on the chaos matrix
	// tier (0 derives the schedule from Seed); ChaosSeeds sweeps that
	// many consecutive schedules per chaos scenario.
	ChaosSeed  uint64
	ChaosSeeds int
	// ChaosOps caps every chaos schedule at its first N perturbation
	// actions — a budgeted replay applies exactly that prefix of the
	// unlimited schedule. 0 = unlimited; minimized repro commands set
	// it.
	ChaosOps int
	// TraceFile points the trace matrix tier at a JSONL link schedule
	// (one {"t_ms","latency_ms","jitter_ms","loss"} object per line)
	// instead of the embedded mobile-broadband fixture.
	TraceFile string
	// RunTimeout, when > 0, arms a per-federation wall-clock watchdog:
	// a wedged simulation is killed and reported as an error instead of
	// stalling its worker forever.
	RunTimeout time.Duration
}

// DefaultWorkers returns the machine-sized worker count.
func DefaultWorkers() int { return experiments.DefaultWorkers() }

func (o RunnerOptions) config() experiments.RunnerConfig {
	return experiments.RunnerConfig{
		Workers: o.Workers, Seed: o.Seed, Quick: o.Quick, DenseWire: o.DenseDDVWire,
		UnbatchedWire: o.UnbatchedWire, Oracle: o.Oracle, ChaosSeed: o.ChaosSeed,
		ChaosSeeds: o.ChaosSeeds, ChaosOps: o.ChaosOps, TraceFile: o.TraceFile,
		RunTimeout: o.RunTimeout,
	}
}

// ExperimentRun pairs one experiment's result with its error.
type ExperimentRun struct {
	ID     string
	Result *ExperimentResult
	Err    error
}

// RunExperiments executes the experiments with the given IDs (all when
// ids is nil) through a bounded worker pool, returning one entry per
// requested ID in request order. Individual failures do not abort the
// batch.
func RunExperiments(opts RunnerOptions, ids []string) []ExperimentRun {
	results := experiments.Run(opts.config(), ids)
	out := make([]ExperimentRun, len(results))
	for i, r := range results {
		out[i] = ExperimentRun{ID: r.ID, Err: r.Err}
		if r.Table != nil {
			out[i].Result = resultOf(r.Table)
		}
	}
	return out
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
	tab, err := experiments.RunMatrix(opts.config(), scs)
	if err != nil {
		return nil, err
	}
	return resultOf(tab), nil
}
