package oracle_test

// The replay tests live in an external test package so they can drive
// a real (in-process) live federation through internal/runtime — which
// itself imports the oracle — and replay the journal it produces.

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/runtime"
)

// liveJournal runs a short in-process federation with journaling on
// and returns its events.
func liveJournal(t *testing.T) []oracle.Event {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := runtime.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	fed := runtime.FederationFile{Clusters: []int{2, 2},
		Workload: &runtime.WorkloadFile{PeriodMS: 2, InterProb: 0.4, Size: 128}}
	cfg := fed.RuntimeConfig(nil)
	cfg.CLCPeriods = []time.Duration{20 * time.Millisecond, 20 * time.Millisecond}
	cfg.Journal = j
	live, err := runtime.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	live.Quiesce()
	live.Stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := oracle.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestReplayLiveJournalClean(t *testing.T) {
	events := liveJournal(t)
	rep := oracle.Replay(events)
	if !rep.Clean() {
		t.Fatalf("clean run replayed dirty: %v", rep.Violations)
	}
	if rep.Width != 2 || rep.Starts != 4 {
		t.Fatalf("wrong shape: width %d, %d starts", rep.Width, rep.Starts)
	}
	if rep.Commits == 0 || rep.Deliveries == 0 || rep.Stops != 4 {
		t.Fatalf("implausible counts: %+v", *rep)
	}
	if rep.PerCluster[0].MaxSN == 0 || rep.PerCluster[1].MaxSN == 0 {
		t.Fatalf("no recovery-line progress: %+v", rep.PerCluster)
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestReplayDetectsDDVRegression(t *testing.T) {
	events := liveJournal(t)
	// Forge what the protocol must never do: a later checkpoint whose
	// dependency vector moves backwards.
	last := events[len(events)-1]
	events = append(events, oracle.Event{
		T: last.T + 1, Node: "c0n0", Kind: "commit",
		Seq: 1_000_000, Epoch: 0, DDV: []uint64{1, 1},
	})
	rep := oracle.Replay(events)
	if rep.Clean() {
		t.Fatal("DDV regression replayed clean")
	}
}

func TestReplayRequiresStart(t *testing.T) {
	rep := oracle.Replay([]oracle.Event{
		{T: 1, Node: "c0n0", Kind: "commit", Seq: 2, DDV: []uint64{2, 1}},
	})
	if rep.Clean() {
		t.Fatal("journal without a start event replayed clean")
	}
}

func TestReplayStructuralChecks(t *testing.T) {
	base := oracle.Event{T: 1, Node: "c0n0", Kind: "start", Clusters: []int{2, 2}, Mode: "hc3i"}
	cases := []struct {
		name string
		ev   oracle.Event
	}{
		{"unparseable node", oracle.Event{T: 2, Node: "bogus", Kind: "commit", Seq: 2, DDV: []uint64{2, 1}}},
		{"foreign cluster", oracle.Event{T: 2, Node: "c7n0", Kind: "commit", Seq: 2, DDV: []uint64{2, 1}}},
		{"narrow commit DDV", oracle.Event{T: 2, Node: "c0n0", Kind: "commit", Seq: 2, DDV: []uint64{2}}},
		{"narrow rollback DDV", oracle.Event{T: 2, Node: "c0n0", Kind: "rollback", Seq: 1, Epoch: 1, DDV: []uint64{1, 2, 3}}},
		{"unknown kind", oracle.Event{T: 2, Node: "c0n0", Kind: "frobnicate"}},
		{"bad deliver source", oracle.Event{T: 2, Node: "c0n0", Kind: "deliver", Src: "nope", SendSN: 1, RecvSN: 1}},
	}
	for _, tc := range cases {
		rep := oracle.Replay([]oracle.Event{base, tc.ev})
		if rep.Clean() {
			t.Errorf("%s: replayed clean", tc.name)
		}
	}
}

func TestReadJournalFileTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	body := `{"t":1,"node":"c0n0","kind":"start","clusters":[1],"mode":"hc3i"}` + "\n" +
		`{"t":2,"node":"c0n0","kind":"commit","seq":2,"ddv":[2]}` + "\n" +
		`{"t":3,"node":"c0n0","kind":"com` // SIGKILL mid-write
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := oracle.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events from a torn journal, want the 2 intact ones", len(events))
	}

	// Garbage anywhere but the tail means the file is not a journal.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"+body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.ReadJournalFile(bad); err == nil {
		t.Fatal("mid-file garbage accepted")
	}
}

func TestMergeEventsOrder(t *testing.T) {
	a := []oracle.Event{
		{T: 10, Node: "c0n0", Kind: "commit", Seq: 2},
		{T: 30, Node: "c0n0", Kind: "commit", Seq: 3},
	}
	b := []oracle.Event{
		{T: 10, Node: "c0n1", Kind: "commit", Seq: 2}, // tie with a[0]
		{T: 20, Node: "c0n1", Kind: "commit", Seq: 3},
	}
	merged := oracle.MergeEvents(a, b)
	wantNodes := []string{"c0n0", "c0n1", "c0n1", "c0n0"}
	for i, ev := range merged {
		if ev.Node != wantNodes[i] {
			t.Fatalf("merge order wrong at %d: got %s want %s (merged %+v)",
				i, ev.Node, wantNodes[i], merged)
		}
	}
}
