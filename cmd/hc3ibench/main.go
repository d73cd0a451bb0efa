// Command hc3ibench regenerates the paper's evaluation — every table
// and figure (T1, F6-F9, T2, T3) plus the ablations (A1-A9) — and runs
// the scenario matrix: dozens of topology x workload x failure x
// network combinations, each under HC3I and all three baseline
// protocols.
//
// Usage:
//
//	hc3ibench                 # run everything at the paper's scale
//	hc3ibench -quick          # reduced scale (seconds instead of minutes)
//	hc3ibench -parallel 8     # keep 8 simulated federations in flight
//	hc3ibench -run F6,F7      # a subset of the registry
//	hc3ibench -matrix         # run the full scenario matrix instead
//	hc3ibench -matrix -filter topology=8c,failure=churn
//	hc3ibench -matrix -filter tier=wide            # 64-256 cluster tier
//	hc3ibench -matrix -filter tier=wide -dense-ddv # dense reference wire
//	hc3ibench -oracle -matrix                      # invariant-checked matrix
//	hc3ibench -matrix -filter tier=chaos -chaos-seeds 50   # adversarial tier
//	hc3ibench -matrix -filter tier=chaos -seed 3 -chaos-seed 1337  # replay one run
//	hc3ibench -matrix -filter tier=chaos -seed 3 -chaos-seed 1337 -chaos-ops 12  # minimized prefix
//	hc3ibench -matrix -filter tier=trace                   # open-loop arrivals on trace-driven links
//	hc3ibench -matrix -filter tier=trace -trace-file my_link.jsonl
//	hc3ibench -matrix -run-timeout 2m                      # watchdog wedged runs
//
// A failing chaos sweep names the violated check and the failing run's
// traffic and chaos seeds, and prints the exact replay command, so a red nightly run is one
// paste away from a local repro.
//
//	hc3ibench -list           # list the registry and the matrix axes
//	hc3ibench -o results.txt  # also write the output to a file
//	hc3ibench -csv out/       # one <ID>.csv per table for plotting
//	hc3ibench -quick -matrix -cpuprofile cpu.pprof -memprofile heap.pprof
//
// Parallel runs are byte-identical to sequential ones: every federation
// is an isolated deterministic simulation and results are collected in
// input order.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/hc3i"
	"repro/internal/experiments"
	"repro/internal/netsim"
)

// cli is everything hc3ibench reads off its command line: the run's
// options, flag-bound straight into the one struct the runner
// consumes, and the flags main itself acts on.
type cli struct {
	opts                                         hc3i.RunnerOptions
	runID, filter, out, csvDir, cpuProf, memProf string
	matrix, list, markdown                       bool
}

// bindFlags defines every hc3ibench flag on fs.
func bindFlags(fs *flag.FlagSet) *cli {
	c := &cli{}
	opts := &c.opts
	fs.BoolVar(&opts.Quick, "quick", false, "reduced scale (small clusters, short runs)")
	fs.Uint64Var(&opts.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&opts.Workers, "parallel", hc3i.DefaultWorkers(),
		"max federations simulated concurrently (1 = sequential; output is identical either way)")
	fs.BoolVar(&opts.DenseWire, "dense-ddv", false,
		"transport dependency vectors in the dense wire encoding (identical results; for A/B timing the delta encoding)")
	fs.BoolVar(&opts.UnbatchedWire, "unbatched-wire", false,
		"schedule every inter-cluster delivery as its own engine event instead of batching same-pipe same-tick messages (identical results; for A/B timing the batched wire)")
	fs.BoolVar(&opts.Oracle, "oracle", false,
		"attach the online protocol invariant checker to every run (identical results; violations fail the run)")
	fs.Uint64Var(&opts.ChaosSeed, "chaos-seed", 0,
		"replay one adversarial schedule on the chaos tier (0 = derive from -seed)")
	fs.IntVar(&opts.ChaosSeeds, "chaos-seeds", 1,
		"how many consecutive adversarial schedules each chaos-tier scenario runs")
	fs.IntVar(&opts.ChaosOps, "chaos-ops", 0,
		"cap every chaos schedule at its first N perturbation actions (0 = unlimited; minimized repro commands set it)")
	fs.StringVar(&opts.TraceFile, "trace-file", "",
		"JSONL link schedule for the trace tier (one {\"t_ms\",\"latency_ms\",\"jitter_ms\",\"loss\"} object per line; default: the embedded mobile-broadband fixture)")
	fs.DurationVar(&opts.RunTimeout, "run-timeout", 0,
		"wall-clock watchdog per federation run: a wedged run is killed and reported instead of hanging (0 = none)")
	fs.StringVar(&c.runID, "run", "", "comma-separated experiment IDs (default: all)")
	fs.BoolVar(&c.matrix, "matrix", false, "run the scenario matrix instead of the registry")
	fs.StringVar(&c.filter, "filter", "", "matrix filter, e.g. topology=2c,failure=churn")
	fs.BoolVar(&c.list, "list", false, "list experiments and matrix axes, then exit")
	fs.StringVar(&c.out, "o", "", "also write results to this file")
	fs.StringVar(&c.csvDir, "csv", "", "write one <ID>.csv per table into this directory")
	fs.BoolVar(&c.markdown, "markdown", false, "emit GitHub-flavoured markdown tables")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a heap profile at exit to this file")
	return c
}

func main() {
	c := bindFlags(flag.CommandLine)
	flag.Parse()
	opts := c.opts

	if c.list {
		for _, e := range hc3i.Experiments() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Description)
		}
		fmt.Println("\nscenario matrix axes (-matrix, filter with -filter dim=value,...):")
		fmt.Print(hc3i.MatrixAxes())
		return
	}

	// Usage errors must fire before -o truncates an existing file.
	if c.filter != "" && !c.matrix {
		fmt.Fprintln(os.Stderr, "hc3ibench: -filter only applies with -matrix")
		os.Exit(1)
	}
	if (opts.ChaosSeed != 0 || opts.ChaosSeeds != 1) && !c.matrix {
		fmt.Fprintln(os.Stderr, "hc3ibench: -chaos-seed/-chaos-seeds only apply with -matrix (filter the chaos tier: -filter tier=chaos)")
		os.Exit(1)
	}
	if opts.ChaosSeeds < 1 {
		fmt.Fprintln(os.Stderr, "hc3ibench: -chaos-seeds must be >= 1")
		os.Exit(1)
	}
	if opts.ChaosOps < 0 {
		fmt.Fprintln(os.Stderr, "hc3ibench: -chaos-ops must be >= 0 (0 = unlimited)")
		os.Exit(1)
	}
	if opts.ChaosOps != 0 && !c.matrix {
		fmt.Fprintln(os.Stderr, "hc3ibench: -chaos-ops only applies with -matrix (it truncates chaos-tier schedules)")
		os.Exit(1)
	}
	if opts.TraceFile != "" {
		if !c.matrix {
			fmt.Fprintln(os.Stderr, "hc3ibench: -trace-file only applies with -matrix (filter the trace tier: -filter tier=trace)")
			os.Exit(1)
		}
		f, err := os.Open(opts.TraceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hc3ibench:", err)
			os.Exit(1)
		}
		_, err = netsim.ParseTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hc3ibench:", err)
			os.Exit(1)
		}
	}
	if opts.RunTimeout < 0 {
		fmt.Fprintln(os.Stderr, "hc3ibench: -run-timeout must be >= 0 (0 = no watchdog)")
		os.Exit(1)
	}
	if c.runID != "" && c.matrix {
		fmt.Fprintln(os.Stderr, "hc3ibench: -run selects registry experiments; it does not apply with -matrix (use -filter)")
		os.Exit(1)
	}
	if c.matrix {
		if _, err := hc3i.MatrixScenarios(c.filter); err != nil {
			fmt.Fprintln(os.Stderr, "hc3ibench:", err)
			os.Exit(1)
		}
	}

	var w io.Writer = os.Stdout
	if c.out != "" {
		fh, err := os.Create(c.out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hc3ibench:", err)
			os.Exit(1)
		}
		defer fh.Close()
		w = io.MultiWriter(os.Stdout, fh)
	}

	// Profiling hooks: perf work starts from a profile of the real
	// harness, not a guess (`go tool pprof hc3ibench <file>` reads the
	// output). exit flushes the profiles on every path — os.Exit skips
	// deferred writers.
	stopProfiles := startProfiles(c.cpuProf, c.memProf)
	defer stopProfiles()
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	mode := "paper scale"
	if opts.Quick {
		mode = "quick scale"
	}
	fmt.Fprintf(w, "HC3I evaluation harness — %s, seed %d, %d worker(s)\n\n", mode, opts.Seed, opts.Workers)

	emit := func(res *hc3i.ExperimentResult) {
		if c.markdown {
			fmt.Fprintln(w, res.Markdown())
		} else {
			fmt.Fprint(w, res.Render())
			fmt.Fprintln(w)
		}
		if c.csvDir != "" {
			if err := os.MkdirAll(c.csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "hc3ibench:", err)
				exit(1)
			}
			path := filepath.Join(c.csvDir, res.ID+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "hc3ibench:", err)
				exit(1)
			}
		}
	}

	start := time.Now()
	if c.matrix {
		res, err := hc3i.RunMatrix(opts, c.filter)
		if err != nil {
			var cf *experiments.ChaosFailure
			if errors.As(err, &cf) {
				fmt.Fprintf(os.Stderr, "hc3ibench: chaos schedule violated the protocol:\n")
				fmt.Fprintf(os.Stderr, "  scenario:   %s (%s)\n", cf.Scenario.Name(), cf.Protocol)
				fmt.Fprintf(os.Stderr, "  seed:       %d\n", cf.Config.Seed)
				fmt.Fprintf(os.Stderr, "  chaos seed: %d\n", cf.Config.ChaosSeed)
				fmt.Fprintf(os.Stderr, "  check:      %s\n", cf.Check())
				fmt.Fprintf(os.Stderr, "  error:      %v\n", cf.Err)
				fmt.Fprintf(os.Stderr, "  replay:     %s\n", cf.ReplayCommand())
				exit(1)
			}
			fmt.Fprintln(os.Stderr, "hc3ibench:", err)
			exit(1)
		}
		emit(res)
		fmt.Fprintf(w, "(%d rows, %.1fs wall)\n", len(res.Rows), time.Since(start).Seconds())
		return
	}

	var ids []string
	if c.runID != "" {
		for _, id := range strings.Split(c.runID, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	failed := 0
	for _, r := range hc3i.RunExperiments(opts, ids) {
		if r.Err != nil {
			fmt.Fprintf(w, "== %s FAILED: %v ==\n\n", r.ID, r.Err)
			failed++
			continue
		}
		emit(r.Result)
	}
	fmt.Fprintf(w, "(%.1fs wall)\n", time.Since(start).Seconds())
	if failed > 0 {
		exit(1)
	}
}

// startProfiles arms the requested CPU/heap profile writers and returns
// the function that flushes them. Calling the returned function more
// than once is safe.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hc3ibench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hc3ibench:", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hc3ibench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hc3ibench:", err)
			}
		}
	}
}
