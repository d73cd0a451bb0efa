// Package experiments defines one runnable experiment per table and
// figure of the paper's evaluation (§5), plus the ablations listed in
// DESIGN.md. Each experiment builds federations through
// internal/federation, sweeps the parameter the paper sweeps, and
// renders the same rows/series the paper reports. The benchmark
// harness (bench_test.go) and the hc3ibench tool both run this
// registry.
package experiments

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/federation"
)

// Config is the whole description of a registry or matrix run beyond
// the experiment IDs or scenarios it covers; hc3i.RunnerOptions is this
// type and hc3ibench binds its flags straight into it. Every federation
// is an isolated single-threaded simulation (its own sim.Engine,
// sim.Stats and RNG streams), so sweep points and whole experiments fan
// out across goroutines without sharing state; results are collected
// back into input order, making parallel output byte-identical to a
// sequential run of the same seed.
type Config struct {
	// Workers bounds the number of concurrently executing federations:
	// globally under Run and RunMatrix (one shared semaphore), per
	// sweep when an Experiment.Run is called directly. <= 1 runs
	// strictly sequentially; DefaultWorkers picks a machine-sized value.
	Workers int
	// Seed drives all randomness (runs are deterministic per seed).
	Seed uint64
	// Quick shrinks node counts, durations and sweeps so the whole
	// registry finishes in seconds (tests, smoke runs). Full mode uses
	// the paper's parameters: 100-node clusters and 10-hour runs.
	Quick bool
	// Oracle attaches the online protocol invariant checker
	// (internal/oracle) to every federation run, whatever tier or
	// experiment launches it. Results stay byte-identical; a violated
	// invariant fails the run with a diagnostic naming the check and
	// the virtual time instead.
	Oracle bool
	// ChaosSeed overrides the chaos tier's adversarial-schedule seed
	// (0 derives it from Seed). A chaos run is the (Seed, ChaosSeed)
	// pair: Seed drives the traffic, ChaosSeed the schedule, and a
	// failing chaos run reports both.
	ChaosSeed uint64
	// ChaosSeeds is how many consecutive chaos schedules each
	// chaos-tier scenario runs (rows aggregate across them; <= 1 runs
	// one).
	ChaosSeeds int
	// ChaosOps caps the adversarial schedule at its first N
	// perturbation actions (chaos.Config.OpBudget): a budgeted run
	// replays exactly that prefix of the unlimited schedule. 0 =
	// unlimited; set by minimized-repro replay commands.
	ChaosOps int
	// TraceFile points trace-tier scenarios at a JSONL link schedule
	// (the netsim.ParseTrace format: one {"t_ms","latency_ms",
	// "jitter_ms","loss"} object per line) instead of the embedded
	// mobile-broadband fixture.
	TraceFile string
	// RunTimeout, when > 0, arms a per-federation wall-clock watchdog
	// (federation.Options.Watchdog): a wedged run is killed and
	// reported as an error wrapping sim.ErrInterrupted instead of
	// stalling its worker.
	RunTimeout time.Duration
	// sem, when non-nil, is the shared federation-run semaphore of a
	// runner-level execution (see pooled): every federation execution
	// acquires one token, so Workers bounds the number of concurrently
	// simulated federations globally, not per level.
	sem chan struct{}
	// arena, when non-nil, is the shared scratch pool of a runner-level
	// execution: consecutive federation runs on each worker recycle the
	// previous run's event-engine buffers instead of rebuilding from
	// zero per sweep point (see federation.Arena).
	arena *federation.Arena
	// unbatchedWire is a test fixture: one engine event per delivery
	// (federation.Options.UnbatchedWire). Results are byte-identical by
	// construction; only tests in this package set it.
	unbatchedWire bool
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// apply carries the run-wide switches into one federation's options.
// It is the only place a Config field becomes a federation.Options
// field; it only ever turns a switch on, so options a scenario sets for
// itself (the chaos tier's oracle) survive.
func (c Config) apply(opts *federation.Options) {
	if c.unbatchedWire {
		opts.UnbatchedWire = true
	}
	if c.Oracle {
		opts.Oracle = true
	}
	if c.RunTimeout > 0 {
		opts.Watchdog = c.RunTimeout
	}
}

// chaosSeed is the chaos tier's base schedule seed: ChaosSeed, or Seed
// when ChaosSeed is 0.
func (c Config) chaosSeed() uint64 {
	if c.ChaosSeed == 0 {
		return c.Seed
	}
	return c.ChaosSeed
}

// runFed executes one federation under the configuration's switches and
// concurrency budget: with a shared semaphore every simulation holds
// one token for its duration, whatever level of the runner launched it.
func (c Config) runFed(opts federation.Options) (*federation.Result, error) {
	if c.sem != nil {
		c.sem <- struct{}{}
		defer func() { <-c.sem }()
	}
	if opts.Arena == nil {
		opts.Arena = c.arena
	}
	c.apply(&opts)
	return runFed(opts)
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	// Notes records the expected shape from the paper and any
	// deviation worth flagging.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header row first),
// ready for gnuplot/matplotlib to redraw the paper's figures.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(t.Headers)
	for _, r := range t.Rows {
		_ = w.Write(r)
	}
	w.Flush()
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table with
// the notes underneath — the format EXPERIMENTS.md records.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range t.Notes {
			b.WriteString("> " + n + "\n")
		}
	}
	return b.String()
}

// Experiment is one registry entry.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(cfg Config) (*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment, paper artifacts first, then ablations,
// each group in ID order.
func All() []Experiment {
	var es []Experiment
	for _, e := range registry {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		gi, gj := es[i].ID[0] == 'A', es[j].ID[0] == 'A'
		if gi != gj {
			return !gi
		}
		return es[i].ID < es[j].ID
	})
	return es
}

// ByID returns one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs lists all registered experiment IDs in All() order.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}
