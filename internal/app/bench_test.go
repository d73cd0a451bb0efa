package app

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkNodeAppDeliver drives the application's delivery path the
// way a protocol node does: deliveries from three senders, a snapshot
// (a checkpoint) every 64 deliveries and, every 4096, a restore to the
// snapshot before last (a rollback).
func BenchmarkNodeAppDeliver(b *testing.B) {
	fed := topology.Small(2, 4)
	wl := Uniform(2, 600, 12, sim.Hour)
	a := NewNodeApp(topology.NodeID{Cluster: 0, Index: 1}, wl, fed, sim.NewRNG(1))
	senders := []topology.NodeID{{Cluster: 0, Index: 0}, {Cluster: 0, Index: 2}, {Cluster: 1, Index: 3}}
	var prev, last any
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := senders[i%len(senders)]
		a.Deliver(src, core.AppPayload{ID: core.LogicalID{Src: src, Seq: uint64(i + 1)}, Size: 256})
		if i%64 == 63 {
			prev = last
			last, _ = a.Snapshot()
		}
		if i%4096 == 4095 && prev != nil {
			a.Restore(prev)
		}
	}
}
