package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestStatKindTable pins the counting kinds (those past EventGCDrop)
// and the statistic names of the kind table: every kind renders text
// of its own; every counting kind names a statistic of its own, sits at
// sim.TraceOff and reaches neither the oracle's journal nor a tracer;
// a cluster's names are today's literal forms and cost one allocation.
func TestStatKindTable(t *testing.T) {
	leader := topology.NodeID{Cluster: 3}
	seen := map[string]core.EventKind{}
	for k := core.EventKind(1); k < core.NumEventKinds; k++ {
		ev := core.Event{Kind: k, Value: 2}
		if s := ev.String(); strings.HasPrefix(s, "Event(kind=") {
			t.Errorf("kind %d: String() is the fallback %q", k, s)
		}
		if k <= core.EventGCDrop {
			continue
		}
		name := k.StatName()
		if name == "" || k.StatForm(leader) == core.NoStat {
			t.Errorf("kind %d counts nothing", k)
		}
		if other, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d both count %q", other, k, name)
		}
		seen[name] = k
		if l := ev.Level(); l != sim.TraceOff {
			t.Errorf("kind %d (%s): Level() = %v, want TraceOff", k, name, l)
		}
		if rec, ok := oracle.Record(nil, leader, ev); ok {
			t.Errorf("kind %d (%s): oracle.Record maps it to %+v", k, name, rec)
		}
		if _, perCluster := k.ClusterStat(); k.StatForm(leader) == core.StatPoint && !perCluster {
			t.Errorf("kind %d (%s): a series must be per cluster", k, name)
		}
	}
	// A commit counts once per cluster, at its leader.
	commit := core.EventCLCCommitted
	if commit.StatForm(topology.NodeID{Cluster: 3, Index: 1}) != core.NoStat || commit.StatForm(leader) != core.StatCount {
		t.Error("a commit must count at the cluster leader only")
	}

	perCluster := []struct {
		kind core.EventKind
		base string
	}{
		{core.EventRollbackRestart, "rollback.restarted"},
		{core.EventRollback, "rollback.count"},
		{core.EventRollbackDone, "rollback.duration_seconds"},
		{core.EventCLCRequest, "clc.requested"},
		{core.EventCLCCommitted, "clc.committed"},
		{core.EventCLCAbort, "clc.aborted"},
		{core.EventCLCFreeze, "clc.freeze_seconds"},
		{core.EventStorageBytes, "storage.bytes"},
		{core.EventCLCStored, "clc.stored"},
		{core.EventLogSize, "log.size"},
		{core.EventGCBefore, "gc.before"},
		{core.EventGCAfter, "gc.after"},
	}
	if len(perCluster)+2 != core.NumClusterStats {
		t.Fatalf("%d per-cluster statistics listed, NumClusterStats is %d", len(perCluster)+2, core.NumClusterStats)
	}
	for _, c := range []topology.ClusterID{0, 7, 1023} {
		names := core.NewStatNames(c)
		s := fmt.Sprintf(".c%d", c)
		for _, p := range perCluster {
			if got := names.Of(p.kind); got != p.base+s {
				t.Errorf("cluster %d: kind %d named %q, want %q", c, p.kind, got, p.base+s)
			}
		}
		if got := names.Cluster(core.CommitForced); got != "clc.committed"+s+".forced" {
			t.Errorf("cluster %d: forced commit count named %q", c, got)
		}
		if got := names.Cluster(core.CommitUnforced); got != "clc.committed"+s+".unforced" {
			t.Errorf("cluster %d: unforced commit count named %q", c, got)
		}
		if got := names.Of(core.EventHoldMsg); got != "cic.held" {
			t.Errorf("cluster %d: federation-wide statistic named %q", c, got)
		}
	}
	if n := testing.AllocsPerRun(100, func() { core.NewStatNames(42) }); n != 1 {
		t.Errorf("NewStatNames allocates %v times, want 1", n)
	}
}
