package app

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestJournalDerivedCountsProperty drives random sequences of
// deliveries (with duplicates), snapshots, rewinding restores and
// fresh-process restores, and checks after every step that the counts
// derived from the journal equal a count map kept alongside.
func TestJournalDerivedCountsProperty(t *testing.T) {
	fed := topology.Small(2, 4)
	wl := Uniform(2, 100, 10, sim.Hour)
	if err := wl.Validate(fed); err != nil {
		t.Fatal(err)
	}
	id := topology.NodeID{Cluster: 0, Index: 1}
	// A small ID pool makes duplicate deliveries common.
	var pool []core.LogicalID
	for _, src := range []topology.NodeID{{Cluster: 0, Index: 0}, {Cluster: 1, Index: 2}, {Cluster: 1, Index: 3}} {
		for seq := uint64(1); seq <= 6; seq++ {
			pool = append(pool, core.LogicalID{Src: src, Seq: seq})
		}
	}
	type saved struct {
		state  any
		counts map[core.LogicalID]int
	}
	clone := func(m map[core.LogicalID]int) map[core.LogicalID]int {
		c := make(map[core.LogicalID]int, len(m))
		for k, v := range m {
			c[k] = v
		}
		return c
	}
	for _, stable := range []bool{false, true} {
		for seed := uint64(1); seed <= 50; seed++ {
			rng := sim.NewRNG(seed)
			a := NewNodeApp(id, wl, fed, sim.NewRNG(seed))
			a.trackStable = stable
			want := map[core.LogicalID]int{}
			var snaps []saved
			for step := 0; step < 300; step++ {
				var op string
				switch r := rng.Intn(20); {
				case r < 13:
					op = "deliver"
					lid := pool[rng.Intn(len(pool))]
					a.Deliver(lid.Src, core.AppPayload{ID: lid})
					want[lid]++
				case r < 16:
					op = "snapshot"
					s, _ := a.Snapshot()
					snaps = append(snaps, saved{s, clone(want)})
				case r < 19:
					if len(snaps) == 0 {
						continue
					}
					op = "restore"
					s := snaps[rng.Intn(len(snaps))]
					a.Restore(s.state)
					want = clone(s.counts)
				default:
					if len(snaps) == 0 {
						continue
					}
					op = "fresh restore"
					s := snaps[rng.Intn(len(snaps))]
					a = NewNodeApp(id, wl, fed, sim.NewRNG(seed))
					a.trackStable = stable
					a.Restore(s.state)
					want = clone(s.counts)
				}
				total := 0
				for _, lid := range pool {
					if got := a.DeliveredTimes(lid); got != want[lid] {
						t.Fatalf("stable=%v seed %d step %d (%s): DeliveredTimes(%v) = %d, want %d",
							stable, seed, step, op, lid, got, want[lid])
					}
					total += want[lid]
				}
				if got := a.DeliveredCount(); got != len(want) {
					t.Fatalf("stable=%v seed %d step %d (%s): DeliveredCount = %d, want %d",
						stable, seed, step, op, got, len(want))
				}
				if a.JournalLen() != total {
					t.Fatalf("stable=%v seed %d step %d (%s): journal holds %d deliveries, want %d",
						stable, seed, step, op, a.JournalLen(), total)
				}
				if stable && len(a.stableAt) != a.JournalLen() {
					t.Fatalf("seed %d step %d (%s): %d stability slots for %d journal entries",
						seed, step, op, len(a.stableAt), a.JournalLen())
				}
			}
		}
	}
}
