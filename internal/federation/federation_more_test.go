package federation_test

import (
	"os"
	"path/filepath"
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

// statsDumpRuns are the runs whose statistics dumps are pinned: one
// small plain run, two HC3I runs with crashes, GC and transitive
// piggybacks (so the rollback, GC, storage and log counters and every
// series are live; the second's frequent failures and 32 MiB states
// also abort CLCs, skip GC rounds and miss replicas), one whose
// 3-second inter-cluster links let failures abort GC rounds, and one
// run of each other protocol with a crash and GC.
var statsDumpRuns = []struct {
	name, golden string
	opts         func() federation.Options
}{
	{"small", "small_stats_dump.golden", func() federation.Options { return smallOptions(1) }},
	{"hc3i_crash_gc_transitive", "stats_dump_hc3i_crash_gc_transitive.golden", func() federation.Options {
		opts := smallOptions(2)
		opts.Transitive = true
		opts.GCPeriod = 15 * sim.Minute
		opts.GCMemoryThreshold = 600 << 10
		opts.Replicas = 2
		opts.Crashes = []federation.Crash{
			{At: sim.Time(25 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 1}},
			{At: sim.Time(25*sim.Minute + 500*sim.Millisecond), Node: topology.NodeID{Cluster: 0, Index: 2}},
			{At: sim.Time(45 * sim.Minute), Node: topology.NodeID{Cluster: 1, Index: 0}},
		}
		return opts
	}},
	{"hc3i_mtbf_large_state", "stats_dump_hc3i_mtbf_large_state.golden", func() federation.Options {
		wl := app.Uniform(2, 600, 30, sim.Hour)
		wl.StateSize = 32 << 20
		opts := federation.Options{
			Topology:     topology.Small(2, 4),
			Workload:     wl,
			CLCPeriods:   []sim.Duration{2 * sim.Minute, 3 * sim.Minute},
			GCPeriod:     4 * sim.Minute,
			Transitive:   true,
			Replicas:     2,
			MTBFFailures: true,
			Seed:         3,
		}
		opts.Topology.MTBF = 5 * sim.Minute
		return opts
	}},
	{"hc3i_slow_links", "stats_dump_hc3i_slow_links.golden", func() federation.Options {
		fed := topology.Small(3, 3)
		fed.SetAllInterLinks(topology.Link{Latency: 3 * sim.Second, Bandwidth: topology.Mbps(10)})
		wl := app.Uniform(3, 300, 30, sim.Hour)
		wl.StateSize = 1 << 20
		opts := federation.Options{
			Topology:     fed,
			Workload:     wl,
			CLCPeriods:   []sim.Duration{3 * sim.Minute, 3 * sim.Minute, 3 * sim.Minute},
			GCPeriod:     sim.Minute,
			MTBFFailures: true,
			Seed:         5,
		}
		opts.Topology.MTBF = 4 * sim.Minute
		return opts
	}},
	{"force-all", "stats_dump_force-all.golden", protocolDumpOptions("force-all")},
	{"independent", "stats_dump_independent.golden", protocolDumpOptions("independent")},
	{"global-coordinated", "stats_dump_global-coordinated.golden", protocolDumpOptions("global-coordinated")},
	{"hier-coordinated", "stats_dump_hier-coordinated.golden", protocolDumpOptions("hier-coordinated")},
	{"pessimistic-log", "stats_dump_pessimistic-log.golden", protocolDumpOptions("pessimistic-log")},
}

// protocolDumpOptions is a small run of the named protocol with two
// crashes and periodic GC.
func protocolDumpOptions(name string) func() federation.Options {
	return func() federation.Options {
		opts := smallOptions(1)
		factory, err := federation.ProtocolFactory(name)
		if err != nil {
			panic(err)
		}
		opts.NodeFactory = factory
		opts.GCPeriod = 15 * sim.Minute
		opts.Crashes = []federation.Crash{
			{At: sim.Time(25 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 1}},
			{At: sim.Time(45 * sim.Minute), Node: topology.NodeID{Cluster: 1, Index: 2}},
		}
		return opts
	}
}

// TestStatsDumpGolden pins the statistics dump of each statsDumpRuns
// run — every counter, summary, series point count and histogram — to
// the dump recorded before statistics moved onto the protocol's event
// stream. The goldens are never re-recorded: a difference is a change
// of output.
func TestStatsDumpGolden(t *testing.T) {
	for _, r := range statsDumpRuns {
		t.Run(r.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", r.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := mustRun(t, r.opts()).Stats.Dump(); got != string(want) {
				t.Fatalf("stats dump differs from testdata/%s:\n%s", r.golden, got)
			}
		})
	}
}
