package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func sweepOpts(dir string, seeds uint64, units ...Unit) Options {
	return Options{
		Dir:          dir,
		Units:        units,
		SeedsPerUnit: seeds,
		Quick:        true,
		Workers:      4,
		RunTimeout:   time.Minute,
	}
}

// TestSweepCleanAndIdempotent: a full sweep journals every (unit,
// seed) exactly once, passes the ledger audit, and running the same
// sweep again finds nothing left to do.
func TestSweepCleanAndIdempotent(t *testing.T) {
	dir := t.TempDir()
	opts := sweepOpts(dir, 4, unit("2c", "uniform"), unit("2c", "bursty"))
	var tee bytes.Buffer
	opts.Tee = NewWriterExporter(&tee)
	sum, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 8 || sum.Remaining != 0 {
		t.Fatalf("summary = %d completed %d remaining, want 8 and 0", sum.Completed, sum.Remaining)
	}
	if sum.Violations+sum.Wedged+sum.Panics != 0 {
		t.Fatalf("clean protocol produced failures: %+v", sum)
	}
	if n := strings.Count(tee.String(), "\n"); n != 8 {
		t.Fatalf("tee exporter saw %d records, want 8", n)
	}
	var r Record
	if err := json.Unmarshal([]byte(strings.SplitN(tee.String(), "\n", 2)[0]), &r); err != nil {
		t.Fatalf("tee output is not JSONL: %v", err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("ledger audit: %v", err)
	}
	opts.Tee = nil
	again, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Completed != 8 {
		t.Fatalf("idempotent resume saw %d completed, want 8", again.Completed)
	}
	data, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 8 {
		t.Fatalf("journal holds %d records after the no-op resume, want still 8", n)
	}
}

// TestSweepJournalsMinimizedViolations: with a protocol break armed,
// the sweep records violations with the check name and a replay
// command carrying the minimized -chaos-ops prefix, and the ledger
// still audits clean.
func TestSweepJournalsMinimizedViolations(t *testing.T) {
	core.Mutate.AcceptStaleEpoch = true
	defer func() { core.Mutate = core.MutationFlags{} }()
	dir := t.TempDir()
	opts := sweepOpts(dir, 40, unit("4c", "uniform"))
	opts.Minimize = true
	sum, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Violations == 0 {
		t.Fatal("armed mutation produced no violations across 40 seeds")
	}
	minimized := false
	for _, f := range sum.Failures {
		if f.Status != StatusViolation {
			continue
		}
		if f.Check == "" || f.Replay == "" {
			t.Fatalf("violation record lacks check/replay: %+v", f)
		}
		if !strings.Contains(f.Replay, "-chaos-seed") {
			t.Fatalf("replay command misses the seed: %q", f.Replay)
		}
		if f.MinOps > 0 {
			minimized = true
			if !strings.Contains(f.Replay, "-chaos-ops") {
				t.Fatalf("minimized record's replay misses -chaos-ops: %q", f.Replay)
			}
		}
	}
	if !minimized {
		t.Fatal("no violation carried a minimized prefix budget")
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("ledger audit: %v", err)
	}
}

// TestSweepDrainsOnCancel: cancelling the context stops assignment but
// journals in-flight work; the summary reports the remaining seeds and
// a resume finishes them.
func TestSweepDrainsOnCancel(t *testing.T) {
	dir := t.TempDir()
	opts := sweepOpts(dir, 50, unit("2c", "uniform"))
	opts.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain immediately: nothing (or almost nothing) starts
	sum, err := Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Remaining == 0 {
		t.Fatal("cancelled sweep claims completion")
	}
	sum2, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Completed != 50 || sum2.Remaining != 0 {
		t.Fatalf("resume after drain = %d completed %d remaining, want 50 and 0", sum2.Completed, sum2.Remaining)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("ledger audit: %v", err)
	}
}

// TestSweepSurvivesSIGKILL is the real mid-sweep kill: a child process
// (this test binary re-executed) runs the sweep with DieAfter armed
// and SIGKILLs itself right after journaling the Nth record — between
// checkpoints, with workers in flight. The parent then resumes the
// same state dir and audits the ledger: every pre-kill record kept,
// none double-counted, the sweep completed.
func TestSweepSurvivesSIGKILL(t *testing.T) {
	const target = 30
	if dir := os.Getenv("SOAK_KILL_DIR"); dir != "" {
		// Child: die after 11 records with a checkpoint every 4 — the
		// kill lands with journal records the checkpoint never saw.
		opts := sweepOpts(dir, target, unit("2c", "uniform"), unit("2c", "bursty"))
		opts.CheckpointEvery = 4
		opts.DieAfter = 11
		_, err := Run(context.Background(), opts)
		// Unreachable when DieAfter fires; reaching here is the failure.
		t.Fatalf("child survived DieAfter: %v", err)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestSweepSurvivesSIGKILL$", "-test.v")
	cmd.Env = append(os.Environ(), "SOAK_KILL_DIR="+dir)
	out, err := cmd.CombinedOutput()
	var xerr *exec.ExitError
	if !errors.As(err, &xerr) || xerr.ExitCode() != -1 {
		t.Fatalf("child did not die by signal (err=%v):\n%s", err, out)
	}
	data, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatalf("killed child left no journal: %v", err)
	}
	preKill := bytes.Count(data, []byte("\n"))
	if preKill != 11 {
		t.Fatalf("journal holds %d records at the kill point, want exactly 11 (DieAfter)", preKill)
	}

	// Resume and finish.
	opts := sweepOpts(dir, target, unit("2c", "uniform"), unit("2c", "bursty"))
	sum, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 2*target || sum.Remaining != 0 {
		t.Fatalf("resumed sweep = %d completed %d remaining, want %d and 0", sum.Completed, sum.Remaining, 2*target)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("exactly-once audit after SIGKILL: %v", err)
	}
	// Every pre-kill record survived verbatim at the head of the journal.
	after, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, data) {
		t.Fatal("resume rewrote the pre-kill journal prefix")
	}
	seen := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimRight(after, "\n"), []byte("\n")) {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("journal line unparseable after resume: %v", err)
		}
		if seen[r.Key()] {
			t.Fatalf("slot %s journaled twice", r.Key())
		}
		seen[r.Key()] = true
	}
	if len(seen) != 2*target {
		t.Fatalf("journal covers %d slots, want %d", len(seen), 2*target)
	}
}
