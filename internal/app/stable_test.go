package app

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestNodeAppStableTracking drives the stable-delivery machinery by
// hand: deliveries are unstable until a Stabilized call covers them,
// a later Stabilized must not move an already-stable mark, and a
// Restore rewinds stability along with the journal — so the marks that
// survive are exactly the commits never rolled back behind.
func TestNodeAppStableTracking(t *testing.T) {
	fed := topology.Small(2, 2)
	wl := NewOpenLoop(2, 1000, 1.0, 1.0, sim.Hour)
	a := NewNodeApp(topology.NodeID{Cluster: 0, Index: 0}, wl, fed, sim.NewRNG(1))
	var now sim.Time
	a.Now = func() sim.Time { return now }

	src := topology.NodeID{Cluster: 1, Index: 0}
	deliver := func(seq uint64) {
		a.Deliver(src, core.AppPayload{ID: core.LogicalID{Src: src, Seq: seq}, Size: 1})
	}

	deliver(1)
	deliver(2)
	preCommit, _ := a.Snapshot() // journal = 2
	deliver(3)

	if a.StableCount() != 0 {
		t.Fatalf("stable before any commit: %d", a.StableCount())
	}
	now = sim.Time(0).Add(10 * sim.Minute)
	a.Stabilized(preCommit)
	if a.StableCount() != 2 {
		t.Fatalf("stable after commit = %d, want 2", a.StableCount())
	}
	for j := 0; j < 2; j++ {
		if a.StableTime(j) != now {
			t.Fatalf("entry %d stabilized at %v, want %v", j, a.StableTime(j), now)
		}
	}

	// A later commit covering the same prefix must not re-stamp it.
	now = sim.Time(0).Add(20 * sim.Minute)
	a.Stabilized(preCommit)
	if a.StableTime(0) != sim.Time(0).Add(10*sim.Minute) {
		t.Fatal("already-stable entry re-stamped by a later commit")
	}

	// Rolling back behind the commit rescinds its coverage...
	deliver(4)
	fullCommit, _ := a.Snapshot() // journal = 4
	a.Stabilized(fullCommit)
	if a.StableCount() != 4 {
		t.Fatalf("stable = %d, want 4", a.StableCount())
	}
	a.Restore(preCommit)
	if a.StableCount() != 2 {
		t.Fatalf("stable after rollback = %d, want 2", a.StableCount())
	}
	// ...and a replayed delivery stabilizes at the new commit's time.
	deliver(3)
	s, _ := a.Snapshot()
	now = sim.Time(0).Add(40 * sim.Minute)
	a.Stabilized(s)
	if a.StableCount() != 3 {
		t.Fatalf("stable after replay = %d, want 3", a.StableCount())
	}
	if a.StableTime(2) != now {
		t.Fatalf("replayed entry stabilized at %v, want %v", a.StableTime(2), now)
	}
	// The surviving prefix keeps its original (earlier) stability time.
	if a.StableTime(0) != sim.Time(0).Add(10*sim.Minute) {
		t.Fatal("rollback disturbed the surviving prefix's stability times")
	}
}

// TestSnapshotsImmutable: a snapshot is cut from the application's
// slab and never changes afterwards — not by later snapshots sharing
// its chunk, not by restores to it or to others — and cutting one
// amortises to under 1/8 allocation.
func TestSnapshotsImmutable(t *testing.T) {
	fed := topology.Small(2, 2)
	a := NewNodeApp(topology.NodeID{Cluster: 0, Index: 0}, Uniform(2, 1000, 50, sim.Hour), fed, sim.NewRNG(7))
	var now sim.Time
	a.Now = func() sim.Time { return now }
	src := topology.NodeID{Cluster: 1, Index: 0}
	var snaps []any
	var want []State
	for k := 0; k < 40; k++ {
		now = now.Add(sim.Second)
		a.TakeSend()
		a.Deliver(src, core.AppPayload{ID: core.LogicalID{Src: src, Seq: uint64(k)}})
		s, _ := a.Snapshot()
		snaps = append(snaps, s)
		w := *s.(*State)
		w.Journal = slices.Clone(w.Journal)
		want = append(want, w)
		if k%7 == 6 {
			a.Restore(snaps[k/2])
		}
	}
	for i, s := range snaps {
		if got := *s.(*State); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("snapshot %d changed from %+v to %+v", i, want[i], got)
		}
	}
	const cuts = 800
	perCut := testing.AllocsPerRun(1, func() {
		for k := 0; k < cuts; k++ {
			a.Snapshot()
		}
	}) / cuts
	if perCut >= 1.0/8 {
		t.Fatalf("%v allocations per snapshot, want < 1/8", perCut)
	}
}

// TestNodeAppArrivalTime checks arrivals are read off the schedule on
// the original time axis: entry i of the deterministic schedule is
// request Seq i+1, whatever the current incarnation's clock says.
func TestNodeAppArrivalTime(t *testing.T) {
	fed := topology.Small(2, 2)
	wl := NewOpenLoop(2, 100000, 0.5, 1.0, sim.Hour)
	a := NewNodeApp(topology.NodeID{Cluster: 0, Index: 0}, wl, fed, sim.NewRNG(3))
	first := a.ArrivalTime(0)
	if a.ArrivalTime(1) < first {
		t.Fatal("arrivals not monotone")
	}
	// The arrival axis is fixed: asking again (after schedule extension)
	// returns the same instant.
	a.ArrivalTime(50)
	if a.ArrivalTime(0) != first {
		t.Fatal("arrival time changed after schedule extension")
	}
}
