package soak

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func unit(topo, wl string) Unit {
	return Unit{Scenario: experiments.Scenario{Topology: topo, Workload: wl, Failure: "storm", Network: "jitter"}}
}

func rec(u Unit, seed uint64, status string) Record {
	return Record{Scenario: u.Scenario.Name(), Protocol: u.protocol(), Seed: seed, Status: status}
}

// TestCursorNormalization: out-of-order completions accumulate as
// extras and fold back into the contiguous prefix as gaps fill, and a
// repeated completion never advances the cursor twice.
func TestCursorNormalization(t *testing.T) {
	c := &Cursor{}
	for _, seed := range []uint64{3, 1, 5, 2} {
		if !c.Complete(seed) {
			t.Fatalf("first completion of seed %d rejected", seed)
		}
	}
	if c.Done != 3 || !reflect.DeepEqual(c.Extras, []uint64{5}) {
		t.Fatalf("cursor = done %d extras %v, want 3 + [5]", c.Done, c.Extras)
	}
	for _, seed := range []uint64{1, 3, 5} {
		if c.Complete(seed) {
			t.Fatalf("seed %d double-counted", seed)
		}
	}
	if !c.Complete(4) {
		t.Fatal("gap seed rejected")
	}
	if c.Done != 5 || c.Extras != nil {
		t.Fatalf("cursor = done %d extras %v, want 5 + none", c.Done, c.Extras)
	}
	if c.CompletedCount() != 5 {
		t.Fatalf("CompletedCount = %d, want 5", c.CompletedCount())
	}
}

// TestRecoverAfterTornWrite is the fault-injected kill: the journal
// holds completed records past the checkpoint offset plus a record
// torn mid-write (the moment a kill -9 lands), and the checkpoint lags
// several records behind. Recovery must keep every completed record
// (merged, not re-run), drop the torn tail (re-run), and never count
// anything twice.
func TestRecoverAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	units := []Unit{unit("2c", "uniform"), unit("2c", "bursty")}
	fp := "test-sweep"

	st, j, err := Recover(dir, fp, units)
	if err != nil {
		t.Fatal(err)
	}
	// Session 1: journal five records, checkpoint after the first three,
	// then two more land past the checkpoint, then a kill tears a sixth
	// mid-line.
	all := []Record{
		rec(units[0], 1, StatusOK),
		rec(units[1], 1, StatusOK),
		rec(units[0], 3, StatusViolation), // out of order: seed 2 in flight
		rec(units[0], 2, StatusOK),
		rec(units[1], 2, StatusWedged),
	}
	for i, r := range all {
		if err := j.Export(r); err != nil {
			t.Fatal(err)
		}
		st.Absorb(r)
		if i == 2 {
			st.JournalBytes = j.Offset()
			if err := SaveState(dir, st); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()
	f, err := os.OpenFile(JournalPath(dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"scenario":"2c/uniform/storm/jitter","protocol":"hc3i","seed":4,"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Session 2: recover. The checkpoint knows 3 records; the journal
	// holds 5 complete + 1 torn.
	st2, j2, err := Recover(dir, fp, units)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st2.Completed != 5 {
		t.Fatalf("recovered %d completed, want all 5 journaled", st2.Completed)
	}
	if st2.Violations != 1 || st2.Wedged != 1 {
		t.Fatalf("ledger = %d violations %d wedged, want 1 and 1", st2.Violations, st2.Wedged)
	}
	c0 := st2.Cursor(units[0].Scenario.Name())
	if c0.Done != 3 || len(c0.Extras) != 0 {
		t.Fatalf("unit 0 cursor = %d + %v, want contiguous 3", c0.Done, c0.Extras)
	}
	if c0.Completed(4) {
		t.Fatal("torn seed-4 record counted as complete; it must be re-run")
	}
	if st2.JournalBytes != j2.Offset() {
		t.Fatalf("recovered offset %d != journal end %d", st2.JournalBytes, j2.Offset())
	}
	// The torn bytes are gone: appending now must yield a parseable
	// journal.
	if err := j2.Export(rec(units[0], 4, StatusOK)); err != nil {
		t.Fatal(err)
	}
	st2.Absorb(rec(units[0], 4, StatusOK))
	st2.JournalBytes = j2.Offset()
	if err := SaveState(dir, st2); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("ledger audit after recovery: %v", err)
	}
	// Monotonic progress: a third recovery sees strictly more work done.
	st3, j3, err := Recover(dir, fp, units)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if st3.Completed != 6 {
		t.Fatalf("third recovery sees %d completed, want 6", st3.Completed)
	}
}

// TestRecoverRejectsForeignState: resuming a state dir under a
// different sweep configuration must fail loudly, not mix schedules.
func TestRecoverRejectsForeignState(t *testing.T) {
	dir := t.TempDir()
	units := []Unit{unit("2c", "uniform")}
	st, j, err := Recover(dir, "sweep-a", units)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := SaveState(dir, st); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir, "sweep-b", units); err == nil {
		t.Fatal("foreign fingerprint accepted")
	}
}

// TestVerifyCatchesDuplicates: the auditor must flag a journal that
// counts one sweep slot twice.
func TestVerifyCatchesDuplicates(t *testing.T) {
	dir := t.TempDir()
	units := []Unit{unit("2c", "uniform")}
	st, j, err := Recover(dir, "dup-sweep", units)
	if err != nil {
		t.Fatal(err)
	}
	r := rec(units[0], 1, StatusOK)
	j.Export(r)
	j.Export(r) // the bug Verify exists to catch
	st.Absorb(r)
	st.JournalBytes = j.Offset()
	j.Close()
	if err := SaveState(dir, st); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("duplicate journal record passed the audit")
	}
}

// A state dir as the last release that still took -shards wrote it for
// a sweep without the flag (its cursors carry "shards": 1, its records
// no shards key), byte for byte.
const (
	legacySequentialState = `{
  "version": 1,
  "fingerprint": "soak-v1 quick=true units=2c/uniform/storm/jitter|hc3i|1",
  "journal_bytes": 393,
  "cursors": [
    {
      "scenario": "2c/uniform/storm/jitter",
      "protocol": "hc3i",
      "shards": 1,
      "done": 3
    }
  ],
  "completed": 3,
  "violations": 0,
  "wedged": 0,
  "panics": 0
}
`
	legacySequentialJournal = `{"scenario":"2c/uniform/storm/jitter","protocol":"hc3i","seed":1,"status":"ok","ops":34,"events":2924,"failures":3,"elapsed_ms":3}
{"scenario":"2c/uniform/storm/jitter","protocol":"hc3i","seed":2,"status":"ok","ops":47,"events":2870,"failures":2,"elapsed_ms":3}
{"scenario":"2c/uniform/storm/jitter","protocol":"hc3i","seed":3,"status":"ok","ops":33,"events":3001,"failures":3,"elapsed_ms":2}
`
	// The same release's `-shards 4` sweep.
	legacyShardedState = `{
  "version": 1,
  "fingerprint": "soak-v1 quick=true units=4c/uniform/storm/jitter|hc3i|4",
  "journal_bytes": 270,
  "cursors": [
    {
      "scenario": "4c/uniform/storm/jitter",
      "protocol": "hc3i",
      "shards": 4,
      "done": 2
    }
  ],
  "completed": 2,
  "violations": 0,
  "wedged": 0,
  "panics": 0
}
`
	legacyShardedRecord = `{"scenario":"2c/uniform/storm/jitter","protocol":"hc3i","seed":4,"shards":4,"status":"ok","events":10436,"failures":3,"elapsed_ms":23}
`
)

func writeStateDir(t *testing.T, state, journal string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(StatePath(dir), []byte(state), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(JournalPath(dir), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLegacySequentialStateDirResumes: a state dir swept without
// -shards by the release that still had the flag audits clean as it
// stands, resumes under today's fingerprint without re-running its
// three seeds, and audits clean again after the resume rewrote the
// checkpoint.
func TestLegacySequentialStateDirResumes(t *testing.T) {
	dir := writeStateDir(t, legacySequentialState, legacySequentialJournal)
	if st, err := Verify(dir); err != nil || st.Completed != 3 {
		t.Fatalf("audit of the untouched legacy dir: %v (state %+v)", err, st)
	}
	sum, err := Run(context.Background(), sweepOpts(dir, 4, unit("2c", "uniform")))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if sum.Completed != 4 || sum.Remaining != 0 {
		t.Fatalf("resume = %d completed %d remaining, want 4 (3 kept + seed 4) and 0", sum.Completed, sum.Remaining)
	}
	journal, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(journal), legacySequentialJournal) || strings.Count(string(journal), "\n") != 4 {
		t.Fatalf("resume rewrote or re-ran the legacy records:\n%s", journal)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("audit after resume: %v", err)
	}
}

// TestShardedLegacyStateRefused: a record or cursor of a multi-engine
// schedule must be refused by name — file, position and field — on
// every load path, never folded into the single-engine slot of the
// same seed.
func TestShardedLegacyStateRefused(t *testing.T) {
	units := []Unit{unit("2c", "uniform")}
	fp := Fingerprint(sweepOpts("", 1, units...))
	wantErr := func(t *testing.T, err error, parts ...string) {
		t.Helper()
		if err == nil {
			t.Fatal("accepted")
		}
		for _, p := range parts {
			if !strings.Contains(err.Error(), p) {
				t.Errorf("error %q does not name %q", err, p)
			}
		}
	}
	t.Run("record/verify", func(t *testing.T) {
		dir := writeStateDir(t, legacySequentialState, legacySequentialJournal+legacyShardedRecord)
		_, err := Verify(dir)
		wantErr(t, err, JournalPath(dir), "record 4", `"shards" is 4`)
	})
	t.Run("record/resume-past-checkpoint", func(t *testing.T) {
		// The checkpoint covers the three sequential records, so the
		// resume starts reading at the offending line: its number must
		// still be the journal's, not the scan's.
		dir := writeStateDir(t, legacySequentialState, legacySequentialJournal+legacyShardedRecord)
		_, _, err := Recover(dir, fp, units)
		wantErr(t, err, JournalPath(dir), "record 4", `"shards" is 4`)
	})
	t.Run("cursor", func(t *testing.T) {
		dir := writeStateDir(t, legacyShardedState, "")
		_, err := Verify(dir)
		wantErr(t, err, StatePath(dir), "cursor 1", "4c/uniform/storm/jitter", `"shards" is 4`)
		_, _, err = Recover(dir, fp, units)
		wantErr(t, err, StatePath(dir), "cursor 1", `"shards" is 4`)
	})
}
