package federation_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Delta-vs-dense differential at the federation level, on the
// configurations the experiments registry does not reach: transitive
// piggybacking combined with crashes (the pipe codec must stay in
// lockstep across node failures and rollback cascades — the decoder
// advances even for messages dropped at a down destination) and with
// jittery links. The comparator is the full statistics dump: every
// counter, series and summary of the run must match bit-for-bit.

// transitiveCrashOptions is a 3-cluster transitive run with two
// crashes (one of them a cluster leader) over a jittery WAN.
func transitiveCrashOptions(seed uint64, dense bool) federation.Options {
	fed := topology.Small(3, 3)
	fed.SetAllInterLinks(topology.HighJitterWAN())
	wl := app.Uniform(3, 400, 18, sim.Hour)
	wl.StateSize = 64 << 10
	return federation.Options{
		Topology:     fed,
		Workload:     wl,
		CLCPeriods:   []sim.Duration{8 * sim.Minute, 10 * sim.Minute, 12 * sim.Minute},
		Transitive:   true,
		NoPipeCodecs: dense,
		Seed:         seed,
		Crashes: []federation.Crash{
			{At: sim.Time(20 * sim.Minute), Node: topology.NodeID{Cluster: 1, Index: 1}},
			{At: sim.Time(40 * sim.Minute), Node: topology.NodeID{Cluster: 2, Index: 0}},
		},
	}
}

func TestTransitiveDeltaCrashDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		delta := mustRun(t, transitiveCrashOptions(seed, false))
		dense := mustRun(t, transitiveCrashOptions(seed, true))
		if d, s := delta.Stats.Dump(), dense.Stats.Dump(); d != s {
			t.Fatalf("seed %d: delta and dense transitive runs diverged:\n--- delta\n%s\n--- dense\n%s", seed, d, s)
		}
		if delta.Events != dense.Events {
			t.Fatalf("seed %d: event counts diverged: %d vs %d", seed, delta.Events, dense.Events)
		}
	}
}

// TestTransitiveDeltaGCDifferential adds periodic garbage collection
// to a transitive run, exercising the chain-delta GC reports together
// with the piggyback codec and the logged sparse piggybacks: collections
// drop the records the log's sends were made at, crashes re-adopt the
// entries from mirrors, rollbacks resend them. Collection period, ring or central collector and
// replication degree vary by seed; the oracle watches every run.
func TestTransitiveDeltaGCDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		build := func(dense bool) federation.Options {
			opts := transitiveCrashOptions(seed, dense)
			opts.GCPeriod = []sim.Duration{4 * sim.Minute, 15 * sim.Minute}[seed%2]
			opts.RingGC = seed%3 == 0
			opts.Replicas = 1 + int(seed%2)
			opts.Oracle = true
			return opts
		}
		delta := mustRun(t, build(false))
		dense := mustRun(t, build(true))
		if d, s := delta.Stats.Dump(), dense.Stats.Dump(); d != s {
			t.Fatalf("seed %d: delta and dense transitive GC runs diverged:\n--- delta\n%s\n--- dense\n%s", seed, d, s)
		}
	}
}
