// Command hc3isoak is the continuous chaos soak service: it sweeps
// adversarial schedules (seed k = the run with traffic seed = chaos
// seed = k, replayable with hc3ibench -seed k -chaos-seed k) across
// the chaos-tier scenario grid with the protocol invariant oracle
// attached, journals every completed seed as JSONL, and checkpoints
// its cursor so the sweep survives kills and restarts.
//
// Usage:
//
//	hc3isoak -state soak/ -seeds 5000             # sweep 5000 seeds per scenario
//	hc3isoak -state soak/ -seeds 5000             # run again: resumes where it left off
//	hc3isoak -state soak/ -filter tier=chaos,topology=4c
//	hc3isoak -state soak/ -seeds 100 -tee         # stream records to stdout too
//	hc3isoak -state soak/ -verify                 # audit the ledger, change nothing
//
// Durability: the journal (journal.jsonl) is the source of truth — a
// seed is done exactly when its record line is fully on disk. The
// checkpoint (state.json) is an atomically-replaced cursor over the
// journal. kill -9 at any instant loses at most the runs that were in
// flight; on restart the journal tail is merged back (never re-run,
// never double-counted) and the sweep continues at the first seed
// without a record. SIGTERM/SIGINT drain gracefully: in-flight runs
// finish and are journaled, then the service checkpoints and exits.
//
// Failures: a violated invariant is journaled with the check name and
// the exact replay command; unless -no-minimize, the failing schedule
// is first shrunk to the shortest reproducing perturbation prefix
// (replayable via -chaos-ops), so the record's repro is minimal.
// Wedged runs are killed by the -run-timeout watchdog and journaled as
// "wedged". A panicking run is contained to its worker and journaled.
//
// Exit codes: 0 = sweep (or drain) finished with a clean ledger;
// 1 = the ledger holds failures; 2 = configuration or state error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/soak"
)

func main() {
	var (
		stateDir = flag.String("state", "", "state directory (journal.jsonl + state.json); required")
		seeds    = flag.Uint64("seeds", 1000, "seed budget per sweep unit (seeds 1..N; raising it on resume extends the sweep)")
		filter   = flag.String("filter", "tier=chaos", "chaos-tier scenario filter (hc3ibench -filter syntax)")
		parallel = flag.Int("parallel", experiments.DefaultWorkers(), "max runs in flight (1 = sequential)")
		full     = flag.Bool("full", false, "paper-scale runs instead of quick-scale (orders of magnitude slower per seed)")
		timeout  = flag.Duration("run-timeout", 2*time.Minute, "wall-clock watchdog per run; a wedged run is journaled as \"wedged\" (0 disables — a wedged run then stalls a worker forever)")
		ckptN    = flag.Int("checkpoint-every", 32, "checkpoint the cursor after this many journaled records")
		noMin    = flag.Bool("no-minimize", false, "journal violations with the full schedule instead of minimizing to the shortest reproducing prefix")
		tee      = flag.Bool("tee", false, "also stream every record to stdout as JSONL")
		verify   = flag.Bool("verify", false, "audit the state dir: re-derive the ledger from the journal, check it against the checkpoint, print the summary, change nothing")
		dieAfter = flag.Int("die-after", 0, "testing hook: SIGKILL the whole process right after journaling N records this session (exercises the crash-recovery path)")
	)
	flag.Parse()

	if *stateDir == "" {
		fmt.Fprintln(os.Stderr, "hc3isoak: -state is required")
		os.Exit(2)
	}

	if *verify {
		st, err := soak.Verify(*stateDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hc3isoak: verify:", err)
			os.Exit(2)
		}
		fmt.Printf("hc3isoak: ledger consistent: %d seeds journaled, %d violations, %d wedged, %d panics\n",
			st.Completed, st.Violations, st.Wedged, st.Panics)
		if st.Violations+st.Wedged+st.Panics > 0 {
			os.Exit(1)
		}
		return
	}

	scs, err := experiments.MatrixScenarios(*filter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hc3isoak:", err)
		os.Exit(2)
	}
	var units []soak.Unit
	for _, sc := range scs {
		if sc.Tier() != "chaos" {
			fmt.Fprintf(os.Stderr, "hc3isoak: scenario %s is not on the chaos tier (soak sweeps adversarial schedules; filter with tier=chaos)\n", sc.Name())
			os.Exit(2)
		}
		units = append(units, soak.Unit{Scenario: sc})
	}

	opts := soak.Options{
		Dir:             *stateDir,
		Units:           units,
		SeedsPerUnit:    *seeds,
		Quick:           !*full,
		Workers:         *parallel,
		RunTimeout:      *timeout,
		CheckpointEvery: *ckptN,
		Minimize:        !*noMin,
		DieAfter:        *dieAfter,
		Log:             os.Stderr,
	}
	if *tee {
		opts.Tee = soak.NewWriterExporter(os.Stdout)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sum, err := soak.Run(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hc3isoak:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "hc3isoak: %d seeds journaled (%d violations, %d wedged, %d panics), %d remaining\n",
		sum.Completed, sum.Violations, sum.Wedged, sum.Panics, sum.Remaining)
	for _, f := range sum.Failures {
		fmt.Fprintf(os.Stderr, "hc3isoak: FAIL %s seed %d [%s] %s\n  replay: %s\n",
			f.Scenario, f.Seed, f.Status, f.Check, f.Replay)
	}
	if sum.Violations+sum.Wedged+sum.Panics > 0 {
		os.Exit(1)
	}
}
