package netsim

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestBatchedDeliveryMatchesUnbatched runs the same send pattern on a
// batched and an unbatched network and asserts delivery order and
// per-message delivery times are identical — the byte-identity
// contract of wire batching at netsim level.
func TestBatchedDeliveryMatchesUnbatched(t *testing.T) {
	type delivery struct {
		payload int
		at      sim.Time
	}
	run := func(unbatched bool) []delivery {
		e := sim.NewEngine()
		fed := topology.Small(3, 2)
		if err := fed.Validate(); err != nil {
			t.Fatal(err)
		}
		n := New(e, fed, sim.NewStats(), nil)
		if unbatched {
			n.DisableBatching()
		}
		var got []delivery
		for c := 0; c < 3; c++ {
			for i := 0; i < 2; i++ {
				id := topology.NodeID{Cluster: topology.ClusterID(c), Index: i}
				n.Register(id, func(m Message) {
					got = append(got, delivery{m.Payload.(int), e.Now()})
				})
			}
		}
		src := topology.NodeID{Cluster: 0, Index: 0}
		// Same-tick fan: several messages down one pipe (batch), a
		// message on another pipe, and an intra-cluster send.
		for k := 0; k < 5; k++ {
			n.Send(src, topology.NodeID{Cluster: 1, Index: 0}, KindApp, 4000, 100+k)
		}
		n.Send(src, topology.NodeID{Cluster: 2, Index: 0}, KindApp, 4000, 200)
		n.Send(src, topology.NodeID{Cluster: 0, Index: 1}, KindApp, 4000, 300)
		// A later tick reuses the same pipe: the tick guard must open a
		// fresh batch rather than extend the flushed one.
		e.Schedule(sim.Second, func(*sim.Engine) {
			n.Send(src, topology.NodeID{Cluster: 1, Index: 0}, KindApp, 4000, 400)
			n.Send(src, topology.NodeID{Cluster: 1, Index: 0}, KindApp, 4000, 401)
		})
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return got
	}

	batched, reference := run(false), run(true)
	if len(batched) != len(reference) {
		t.Fatalf("batched delivered %d, reference %d", len(batched), len(reference))
	}
	for i := range reference {
		if batched[i] != reference[i] {
			t.Fatalf("delivery %d: batched %+v, reference %+v", i, batched[i], reference[i])
		}
	}
}

// TestBatchPoolRecycles checks that drained batch buffers return to the
// pool instead of accumulating: after many flushed batches the free
// list holds at most the working set of open pipes.
func TestBatchPoolRecycles(t *testing.T) {
	e := sim.NewEngine()
	fed := topology.Small(2, 1)
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
	n := New(e, fed, sim.NewStats(), nil)
	n.Register(topology.NodeID{Cluster: 0, Index: 0}, func(Message) {})
	delivered := 0
	n.Register(topology.NodeID{Cluster: 1, Index: 0}, func(Message) { delivered++ })
	src := topology.NodeID{Cluster: 0, Index: 0}
	dst := topology.NodeID{Cluster: 1, Index: 0}
	for round := 0; round < 50; round++ {
		at := sim.Time(0).Add(sim.Duration(round) * sim.Second)
		e.ScheduleCallAt(at, func(any) {
			for k := 0; k < 4; k++ {
				n.Send(src, dst, KindApp, 1000, k)
			}
		}, nil)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered != 200 {
		t.Fatalf("delivered %d, want 200", delivered)
	}
	if len(n.batchFree) > 2 {
		t.Fatalf("batch free list holds %d buffers after sequential rounds, want <= 2 (pooling broken)", len(n.batchFree))
	}
	for slot, pb := range n.openBatch {
		if pb != nil {
			t.Fatalf("slot %d still holds a drained batch pointer", slot)
		}
	}
}
