package baseline_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

func baseOptions(seed uint64, factory federation.NodeFactory) federation.Options {
	fed := topology.Small(2, 3)
	wl := app.Uniform(2, 400, 20, sim.Hour)
	wl.StateSize = 64 << 10
	return federation.Options{
		Topology:    fed,
		Workload:    wl,
		CLCPeriods:  []sim.Duration{10 * sim.Minute, 10 * sim.Minute},
		Seed:        seed,
		NodeFactory: factory,
	}
}

func run(t *testing.T, opts federation.Options) *federation.Result {
	t.Helper()
	f, err := federation.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func globalFactory(cfg core.Config, env core.Env, hooks core.AppHooks, stats *sim.Stats) federation.ProtocolNode {
	return baseline.NewGlobalCoordinated(cfg, env, hooks, stats)
}

func plogFactory(cfg core.Config, env core.Env, hooks core.AppHooks, stats *sim.Stats) federation.ProtocolNode {
	return baseline.NewPessimisticLog(cfg, env, hooks, stats)
}

func hierFactory(cfg core.Config, env core.Env, hooks core.AppHooks, stats *sim.Stats) federation.ProtocolNode {
	return baseline.NewHierCoord(cfg, env, hooks, stats)
}

func TestGlobalCoordinatedCheckpoints(t *testing.T) {
	res := run(t, baseOptions(1, globalFactory))
	if v := res.Stats.CounterValue("gcoord.committed"); v < 4 || v > 9 {
		t.Fatalf("global checkpoints = %d, want ~6", v)
	}
	// The freeze spans WAN round-trips: strictly positive.
	if res.Stats.CounterValue("gcoord.freeze_us_total") == 0 {
		t.Fatal("no freeze time recorded")
	}
}

func TestGlobalCoordinatedRollsBackEveryone(t *testing.T) {
	opts := baseOptions(2, globalFactory)
	opts.Crashes = []federation.Crash{
		{At: sim.Time(25 * sim.Minute), Node: topology.NodeID{Cluster: 1, Index: 1}},
	}
	res := run(t, opts)
	if res.Stats.CounterValue("gcoord.rollbacks") != 1 {
		t.Fatalf("rollbacks = %d", res.Stats.CounterValue("gcoord.rollbacks"))
	}
	// Both clusters roll back — the scope HC3I avoids.
	for c := 0; c < 2; c++ {
		if res.Clusters[c].Rollbacks == 0 {
			t.Fatalf("cluster %d did not roll back", c)
		}
	}
}

func TestPessimisticLogOnlyFailedNodeRecovers(t *testing.T) {
	opts := baseOptions(3, plogFactory)
	opts.Crashes = []federation.Crash{
		{At: sim.Time(25 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 1}},
	}
	res := run(t, opts)
	if v := res.Stats.CounterValue("plog.recoveries"); v != 1 {
		t.Fatalf("recoveries = %d", v)
	}
	if v := res.Stats.CounterValue("plog.logged"); v == 0 {
		t.Fatal("nothing logged")
	}
	// MPICH-V logs every message: the log volume must track traffic.
	logged := res.Stats.CounterValue("plog.logged")
	sent := res.Stats.CounterValue("plog.sent")
	if logged < sent/2 {
		t.Fatalf("logged %d of %d sent", logged, sent)
	}
}

func TestHierCoordCompletesLines(t *testing.T) {
	res := run(t, baseOptions(4, hierFactory))
	lines := res.Stats.CounterValue("hiercoord.lines_completed")
	if lines < 4 || lines > 9 {
		t.Fatalf("lines completed = %d, want ~6", lines)
	}
	// Every cluster checkpoints on every line, communication or not —
	// unlike HC3I where an idle cluster stores nothing.
	for c := 0; c < 2; c++ {
		got := res.Clusters[c].Committed
		if got < lines {
			t.Fatalf("cluster %d committed %d < %d lines", c, got, lines)
		}
	}
}

func TestHierCoordRollsBackWholeFederation(t *testing.T) {
	opts := baseOptions(5, hierFactory)
	opts.Crashes = []federation.Crash{
		{At: sim.Time(35 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 2}},
	}
	res := run(t, opts)
	if res.Stats.CounterValue("hiercoord.rollbacks") == 0 {
		t.Fatal("no rollback")
	}
	for c := 0; c < 2; c++ {
		if res.Clusters[c].Rollbacks == 0 {
			t.Fatalf("cluster %d did not roll back", c)
		}
	}
}

func TestForceAllModeForcesPerMessage(t *testing.T) {
	opts := baseOptions(6, func(cfg core.Config, env core.Env, hooks core.AppHooks, _ *sim.Stats) federation.ProtocolNode {
		cfg.Mode = core.ModeForceAll
		return core.NewNode(cfg, env, hooks)
	})
	// Modest inter-cluster traffic, no unforced CLCs: every message
	// should force one.
	wl := app.Uniform(2, 200, 10, sim.Hour)
	wl.StateSize = 64 << 10
	opts.Workload = wl
	opts.CLCPeriods = []sim.Duration{sim.Forever, sim.Forever}
	res := run(t, opts)
	inter := res.AppMsgs[0][1] + res.AppMsgs[1][0]
	var forced uint64
	for _, c := range res.Clusters {
		forced += c.Forced
	}
	if forced == 0 {
		t.Fatal("force-all forced nothing")
	}
	// Roughly one forced CLC per inter-cluster message (coalescing
	// during 2PCs can only reduce it).
	if forced > inter {
		t.Fatalf("forced %d > inter messages %d", forced, inter)
	}
	if forced < inter/2 {
		t.Fatalf("forced %d << inter messages %d: not forcing per message", forced, inter)
	}
}

func TestIndependentModeDominoes(t *testing.T) {
	// Bidirectional traffic weaves dependencies in both directions;
	// with no forced checkpoints a failure should drag both clusters
	// far back (domino), where HC3I would stop at a forced CLC.
	opts := baseOptions(7, func(cfg core.Config, env core.Env, hooks core.AppHooks, _ *sim.Stats) federation.ProtocolNode {
		cfg.Mode = core.ModeIndependent
		return core.NewNode(cfg, env, hooks)
	})
	wl := app.Uniform(2, 200, 60, sim.Hour)
	wl.StateSize = 64 << 10
	opts.Workload = wl
	opts.Crashes = []federation.Crash{
		{At: sim.Time(55 * sim.Minute), Node: topology.NodeID{Cluster: 0, Index: 1}},
	}
	res := run(t, opts)
	if res.Clusters[0].Rollbacks == 0 {
		t.Fatal("faulty cluster did not roll back")
	}
	if res.Clusters[1].Rollbacks == 0 {
		t.Fatal("independent mode: no cascade despite dependencies")
	}
	var forced uint64
	for _, c := range res.Clusters {
		forced += c.Forced
	}
	if forced != 0 {
		t.Fatalf("independent mode forced %d CLCs", forced)
	}
}
