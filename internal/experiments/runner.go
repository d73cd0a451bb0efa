package experiments

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/federation"
)

// RunnerConfig drives a registry or matrix run through a bounded worker
// pool. Every federation is an isolated single-threaded simulation (its
// own sim.Engine, sim.Stats and RNG streams), so sweep points and whole
// experiments fan out across goroutines without sharing state; results
// are collected back into input order, making parallel output
// byte-identical to a sequential run of the same seed.
type RunnerConfig struct {
	// Workers bounds the number of concurrently executing federations
	// at each level (experiments across the registry, sweep points
	// inside one experiment). <= 1 runs strictly sequentially; 0 is
	// treated as 1. DefaultWorkers picks a machine-sized value.
	Workers int
	// Seed drives all randomness, exactly as Config.Seed.
	Seed uint64
	// Quick selects the reduced scale, exactly as Config.Quick.
	Quick bool
	// DenseWire selects the dense DDV wire encoding, exactly as
	// Config.DenseWire.
	DenseWire bool
	// UnbatchedWire selects per-message delivery events, exactly as
	// Config.UnbatchedWire.
	UnbatchedWire bool
	// Oracle attaches the protocol invariant checker to every run,
	// exactly as Config.Oracle.
	Oracle bool
	// ChaosSeed/ChaosSeeds drive the chaos tier, exactly as
	// Config.ChaosSeed/Config.ChaosSeeds.
	ChaosSeed  uint64
	ChaosSeeds int
	// ChaosOps caps every chaos schedule at its first N perturbation
	// actions, exactly as Config.ChaosOps.
	ChaosOps int
	// TraceFile selects a custom trace-tier link schedule, exactly as
	// Config.TraceFile.
	TraceFile string
	// RunTimeout arms the per-federation wall-clock watchdog, exactly
	// as Config.RunTimeout.
	RunTimeout time.Duration
}

// DefaultWorkers returns a reasonable pool size: one worker per CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

func (rc RunnerConfig) workers() int {
	if rc.Workers < 1 {
		return 1
	}
	return rc.Workers
}

// config converts the runner configuration into the per-experiment
// Config. With more than one worker it attaches a shared semaphore
// sized to Workers: every federation execution — whichever experiment
// or sweep point launches it — holds one token, so Workers bounds the
// number of concurrently simulated federations globally rather than
// per level.
func (rc RunnerConfig) config() Config {
	cfg := Config{Seed: rc.Seed, Quick: rc.Quick, Workers: rc.workers(), DenseWire: rc.DenseWire,
		UnbatchedWire: rc.UnbatchedWire, Oracle: rc.Oracle, ChaosSeed: rc.ChaosSeed,
		ChaosSeeds: rc.ChaosSeeds, ChaosOps: rc.ChaosOps, TraceFile: rc.TraceFile,
		RunTimeout: rc.RunTimeout}
	if cfg.Workers > 1 {
		cfg.sem = make(chan struct{}, cfg.Workers)
	}
	// One scratch arena per runner invocation: each worker's successive
	// federation runs reuse the engine buffers of the run before it.
	cfg.arena = federation.NewArena()
	return cfg
}

// RunResult pairs one experiment's rendered table with its error, so a
// registry run can report partial failures without losing the rest.
type RunResult struct {
	ID    string
	Table *Table
	Err   error
}

// Run executes the experiments with the given IDs (all registered ones
// when ids is nil) through the worker pool and returns one RunResult
// per requested ID, in request order. Unknown IDs yield an error entry
// rather than aborting the batch.
func Run(rc RunnerConfig, ids []string) []RunResult {
	if ids == nil {
		ids = IDs()
	}
	cfg := rc.config()
	// With the shared semaphore bounding federation executions, every
	// experiment can be in flight at once — its simulations queue on
	// the semaphore. One worker means strictly sequential.
	outer := len(ids)
	if rc.workers() <= 1 {
		outer = 1
	}
	out := make([]RunResult, len(ids))
	forEach(outer, len(ids), func(i int) error {
		out[i].ID = ids[i]
		e, ok := ByID(ids[i])
		if !ok {
			out[i].Err = &UnknownExperimentError{ID: ids[i]}
			return nil
		}
		out[i].Table, out[i].Err = e.Run(cfg)
		return nil
	})
	return out
}

// UnknownExperimentError reports a request for an unregistered ID.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "experiments: unknown experiment " + e.ID
}

// forEach runs fn(0..n-1) on up to workers goroutines and returns the
// lowest-index error, if any. With workers <= 1 it degenerates to a
// plain loop, keeping the sequential path trivially identical.
func forEach(workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Row is the cell list of one table row, as Table.AddRow accepts it.
type Row []any

// sweep executes one experiment's sweep points concurrently and
// appends each point's rows to t in point order, so the rendered table
// is independent of execution interleaving. With a shared semaphore
// (registry runs) every point may start — its federation queues on the
// semaphore; otherwise cfg.Workers bounds the local pool.
func sweep[P any](cfg Config, t *Table, points []P, run func(P) ([]Row, error)) error {
	workers := cfg.workers()
	if cfg.sem != nil {
		workers = len(points)
	}
	out := make([][]Row, len(points))
	err := forEach(workers, len(points), func(i int) error {
		rows, err := run(points[i])
		out[i] = rows
		return err
	})
	if err != nil {
		return err
	}
	for _, rows := range out {
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
	return nil
}
