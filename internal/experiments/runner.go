package experiments

import (
	"runtime"
	"sync"

	"repro/internal/federation"
)

// DefaultWorkers returns a reasonable pool size: one worker per CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// pooled prepares the configuration for a runner-level execution (Run,
// RunMatrix). With more than one worker it attaches a shared semaphore
// sized to Workers: every federation execution — whichever experiment
// or sweep point launches it — holds one token, so Workers bounds the
// number of concurrently simulated federations globally rather than
// per level. An Experiment.Run called directly skips this and keeps its
// per-sweep pool.
func (c Config) pooled() Config {
	c.Workers = c.workers()
	if c.Workers > 1 {
		c.sem = make(chan struct{}, c.Workers)
	}
	// One scratch arena per runner invocation: each worker's successive
	// federation runs reuse the engine buffers of the run before it.
	c.arena = federation.NewArena()
	return c
}

// RunResult pairs one experiment's rendered table with its error, so a
// registry run can report partial failures without losing the rest.
type RunResult struct {
	ID     string
	Result *Table
	Err    error
}

// Run executes the experiments with the given IDs (all registered ones
// when ids is nil) through the worker pool and returns one RunResult
// per requested ID, in request order. Unknown IDs yield an error entry
// rather than aborting the batch.
func Run(cfg Config, ids []string) []RunResult {
	if ids == nil {
		ids = IDs()
	}
	cfg = cfg.pooled()
	// With the shared semaphore bounding federation executions, every
	// experiment can be in flight at once — its simulations queue on
	// the semaphore. One worker means strictly sequential.
	outer := len(ids)
	if cfg.Workers <= 1 {
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
		out[i].Result, out[i].Err = e.Run(cfg)
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
