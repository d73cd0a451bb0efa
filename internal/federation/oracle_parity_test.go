package federation_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestOracleJournalParity: the online oracle and the offline journal
// replay read one event stream. A non-transitive 2×2 crash run with
// the oracle attached is tapped; its events, mapped to journal records
// stamped with virtual time, replay clean, and the replay counts as
// many commits, rollbacks, deliveries and GC drops as the online
// oracle received events of each kind.
func TestOracleJournalParity(t *testing.T) {
	opts := federation.Options{
		Topology:   topology.Small(2, 2),
		Workload:   app.Uniform(2, 600, 40, sim.Hour),
		CLCPeriods: []sim.Duration{10 * sim.Minute, 10 * sim.Minute},
		GCPeriod:   15 * sim.Minute,
		Oracle:     true,
		Seed:       1,
		Crashes: []federation.Crash{
			{At: sim.Time(0).Add(25 * sim.Minute), Node: topology.NodeID{Cluster: 1, Index: 1}},
		},
	}
	var records []oracle.Event
	seen := map[core.EventKind]int{}
	federation.TapEvents(&opts, func(at sim.Time, id topology.NodeID, ev core.Event) {
		seen[ev.Kind]++
		rec, ok := oracle.Record(nil, id, ev)
		if !ok {
			return
		}
		if rec.Kind == "start" {
			rec.Clusters = []int{2, 2}
		}
		rec.T = int64(at)
		records = append(records, rec)
	})
	f, err := federation.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if _, err := f.Run(); err != nil {
		t.Fatalf("online oracle: %v", err)
	}
	if v := f.Oracle().Violations(); len(v) != 0 {
		t.Fatalf("online oracle: %v", v)
	}
	rep := oracle.Replay(records)
	if !rep.Clean() {
		t.Fatalf("replayed oracle: %v", rep.Violations)
	}
	for _, c := range []struct {
		name     string
		replayed int
		kind     core.EventKind
	}{
		{"node starts", rep.Starts, core.EventNodeStart},
		{"commits", rep.Commits, core.EventCLCCommitted},
		{"rollbacks", rep.Rollbacks, core.EventRestore},
		{"deliveries", rep.Deliveries, core.EventDeliver},
		{"GC drops", rep.GCDrops, core.EventGCDrop},
	} {
		if c.replayed != seen[c.kind] || c.replayed == 0 {
			t.Errorf("%s: replay counted %d, online oracle received %d", c.name, c.replayed, seen[c.kind])
		}
	}
	t.Logf("%d records: %d commits, %d rollbacks, %d deliveries, %d GC drops",
		len(records), rep.Commits, rep.Rollbacks, rep.Deliveries, rep.GCDrops)
}
