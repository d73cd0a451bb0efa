package federation_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestTraceOutputLevels(t *testing.T) {
	opts := smallOptions(61)
	var sb strings.Builder
	opts.TraceWriter = &sb
	opts.TraceLevel = sim.TraceDebug
	opts.Crashes = []federation.Crash{
		{At: sim.Time(20 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 1}},
	}
	mustRun(t, opts)
	out := sb.String()
	for _, want := range []string{"CLC", "committed", "ROLLBACK", "CRASH"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q", want)
		}
	}
}

func TestMaxEventsGuard(t *testing.T) {
	opts := smallOptions(67)
	opts.MaxEvents = 50 // absurdly low: the run must abort, not hang
	f, err := federation.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err == nil {
		t.Fatal("MaxEvents guard did not trip")
	}
}

func TestWANTopology(t *testing.T) {
	// Dedicated-WAN inter-cluster links (20 ms latency): the protocol
	// still works, checkpoint acks just take longer to settle.
	fed := topology.New(
		topology.Cluster{Name: "eu", Nodes: 3, Intra: topology.MyrinetLike()},
		topology.Cluster{Name: "us", Nodes: 3, Intra: topology.MyrinetLike()},
	)
	fed.SetAllInterLinks(topology.WANLike())
	wl := app.Uniform(2, 300, 12, sim.Hour)
	wl.StateSize = 64 << 10
	res := mustRun(t, federation.Options{
		Topology:   fed,
		Workload:   wl,
		CLCPeriods: []sim.Duration{10 * sim.Minute, 10 * sim.Minute},
		Seed:       71,
	})
	if res.Clusters[0].Committed == 0 || res.Clusters[1].Forced == 0 {
		t.Fatalf("WAN run missing checkpoints: %+v", res.Clusters)
	}
}

func TestAsymmetricClusterSizes(t *testing.T) {
	fed := topology.New(
		topology.Cluster{Name: "big", Nodes: 9, Intra: topology.MyrinetLike()},
		topology.Cluster{Name: "small", Nodes: 2, Intra: topology.MyrinetLike()},
		topology.Cluster{Name: "solo", Nodes: 1, Intra: topology.MyrinetLike()},
	)
	fed.SetAllInterLinks(topology.EthernetLike())
	wl := app.Pipeline(3, 200, 15, sim.Hour)
	wl.RatesPerHour[2][2] = 0 // the solo cluster has no peer to talk to
	wl.StateSize = 64 << 10
	opts := federation.Options{
		Topology:   fed,
		Workload:   wl,
		CLCPeriods: []sim.Duration{12 * sim.Minute, 12 * sim.Minute, 12 * sim.Minute},
		Seed:       73,
		Crashes: []federation.Crash{
			{At: sim.Time(30 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 7}},
		},
	}
	res := mustRun(t, opts)
	if res.Clusters[0].Rollbacks == 0 {
		t.Fatal("big cluster did not roll back")
	}
	// The 1-node cluster runs with zero replicas (nobody to hold them)
	// and must still checkpoint.
	if res.Clusters[2].Committed == 0 {
		t.Fatal("solo cluster idle")
	}
}

func TestRollbackDurationRecorded(t *testing.T) {
	opts := smallOptions(79)
	opts.Crashes = []federation.Crash{
		{At: sim.Time(25 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 2}},
	}
	res := mustRun(t, opts)
	s := res.Stats.Series("rollback.duration_seconds.c0")
	if s.Len() == 0 {
		t.Fatal("no rollback duration recorded")
	}
	_, d := s.Point(0)
	if d <= 0 {
		t.Fatalf("duration = %v", d)
	}
	// A recovery involving a state fetch should finish within seconds
	// of virtual time (state transfers over the SAN).
	if d > 60 {
		t.Fatalf("implausible recovery time %vs", d)
	}
}

func TestLostWorkRecorded(t *testing.T) {
	opts := smallOptions(83)
	opts.Crashes = []federation.Crash{
		{At: sim.Time(45 * sim.Minute), Node: topology.NodeID{Cluster: 1, Index: 1}},
	}
	res := mustRun(t, opts)
	lost := res.Stats.Summary("app.lost_work_seconds")
	if lost.N() == 0 {
		t.Fatal("no lost work recorded")
	}
	// Crash at 45m with 10-minute checkpoints: each node loses less
	// than one checkpoint interval plus drift.
	if lost.Max() > (15 * sim.Minute).Seconds() {
		t.Fatalf("lost work %vs exceeds a checkpoint interval", lost.Max())
	}
}

func TestBackToBackCrashesSameCluster(t *testing.T) {
	opts := smallOptions(89)
	opts.Crashes = []federation.Crash{
		{At: sim.Time(20 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 1}},
		{At: sim.Time(30 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 2}},
		{At: sim.Time(40 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 3}},
	}
	res := mustRun(t, opts)
	if res.Failures != 3 {
		t.Fatalf("failures = %d", res.Failures)
	}
	if res.Clusters[0].Rollbacks < 3 {
		t.Fatalf("rollbacks = %d", res.Clusters[0].Rollbacks)
	}
}

func TestCrashDuringGarbageCollectionWindow(t *testing.T) {
	opts := smallOptions(97)
	opts.GCPeriod = 20 * sim.Minute
	// Crash exactly at a GC tick: the round aborts or completes, never
	// corrupts.
	opts.Crashes = []federation.Crash{
		{At: sim.Time(40 * sim.Minute), Node: topology.NodeID{Cluster: 1, Index: 2}},
	}
	res := mustRun(t, opts)
	if v := res.Stats.CounterValue("invariant.rollback_target_missing"); v != 0 {
		t.Fatalf("GC vs crash: %d invariant violations", v)
	}
	_ = res
}

// TestStatsDumpGolden pins the statistics dump of one small run —
// every counter, summary, series point count and histogram — to the
// dump the commit before the series moved into block lists recorded.
func TestStatsDumpGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/small_stats_dump.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, smallOptions(1)).Stats.Dump(); got != string(want) {
		t.Fatalf("stats dump differs from testdata/small_stats_dump.golden:\n%s", got)
	}
}
