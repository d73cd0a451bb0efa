package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestSendToClusterBoxPerPeer: a cluster broadcast hands every peer its
// own recycled box — a box belongs to exactly one in-flight delivery —
// and every box is back in the sender's free list once all are
// delivered.
func TestSendToClusterBoxPerPeer(t *testing.T) {
	b := newTestbed(t, []int{4}, 1, false)
	leader := b.node(0, 0)
	leader.OnTimer(TimerCLC)
	boxes := map[*Box[CLCRequest]]topology.NodeID{}
	for _, m := range b.queue {
		if box, ok := m.msg.(*Box[CLCRequest]); ok {
			boxes[box] = m.dst
		}
	}
	if len(boxes) != 3 {
		t.Fatalf("CLCRequest to 3 peers travels in %d distinct boxes", len(boxes))
	}
	b.pump()
	if got := len(leader.ctl.req.free); got != 3 {
		t.Fatalf("%d CLCRequest boxes back in the leader's free list, want 3", got)
	}
	if got := len(leader.ctl.commit.free); got != 3 {
		t.Fatalf("%d CLCCommit boxes back in the leader's free list, want 3", got)
	}
}

// TestReplicaBoxPerHolder: a node replicating its checkpoint part to
// two holders sends each its own Replica box.
func TestReplicaBoxPerHolder(t *testing.T) {
	b := newTestbed(t, []int{3}, 2, false)
	leader := b.node(0, 0)
	leader.OnTimer(TimerCLC) // the leader prepares at once
	dsts := map[*Box[Replica]]topology.NodeID{}
	for _, m := range b.queue {
		if box, ok := m.msg.(*Box[Replica]); ok && m.src == leader.ID() {
			dsts[box] = m.dst
		}
	}
	if len(dsts) != 2 {
		t.Fatalf("Replica to 2 holders travels in %d distinct boxes", len(dsts))
	}
	b.pump()
	for _, n := range b.nodes {
		if n.SN() != 2 || n.ReplicaCount() != 4 { // 2 owners x (initial + CLC 2)
			t.Fatalf("node %v: sn=%d replicas=%d", n.ID(), n.SN(), n.ReplicaCount())
		}
	}
}

// boxRow pairs a control message with the same value in a Box.
func boxRow[T Msg](m T) [2]Msg { return [2]Msg{m, new(Boxes[T]).Wrap(m)} }

// TestControlSizeBoxParity: every boxed control type is priced exactly
// like its value, so a harness that reclaims boxes and one that sends
// values account the same bytes.
func TestControlSizeBoxParity(t *testing.T) {
	pairs := []DDVPair{{Idx: 1, SN: 3}, {Idx: 4, SN: 9}}
	ddv := DDV{1, 2, 3, 4, 5, 6}
	id := topology.NodeID{Cluster: 1, Index: 2}
	rows := [][2]Msg{
		boxRow(CLCRequest{Seq: 2, Forced: true, UpdatePairs: pairs, UpdateWidth: 16}),
		boxRow(CLCRequest{Seq: 2, Forced: true, DDVUpdate: ddv}),
		boxRow(CLCRequest{Seq: 3}),
		boxRow(CLCAck{Seq: 2, NodePairs: pairs}),
		boxRow(CLCAck{Seq: 2, NodeDDV: ddv}),
		boxRow(CLCCommit{Seq: 2, Pairs: pairs, Width: 16}),
		boxRow(CLCCommit{Seq: 2, DDV: ddv}),
		boxRow(ForceCLC{Pairs: pairs, Width: 16, Always: true}),
		boxRow(ForceCLC{NewDDV: ddv}),
		boxRow(Replica{Seq: 4, Owner: id, Size: 1 << 20}),
		boxRow(ReplicaAck{Seq: 4, From: id}),
		boxRow(LogMirror{Owner: id, MsgID: 7, Payload: AppPayload{Size: 4096}, Piggy: sparseOf(ddv, nil)}),
	}
	for _, r := range rows {
		if got, want := controlSize(r[1]), controlSize(r[0]); got != want {
			t.Errorf("%T priced %d, its value %T %d", r[1], got, r[0], want)
		}
	}
}

// TestReplicaStoreMatchesMap drives one node's replica store through
// appends, out-of-order stores, replacements, prefix and suffix drops
// and a reset, holding it against a hash map after every operation.
func TestReplicaStoreMatchesMap(t *testing.T) {
	n := newTestbed(benchTB{t}, []int{4}, 3, false).node(0, 0)
	n.resetReplicas()
	ref := map[replicaKey]Replica{}
	rng := sim.NewRNG(11)
	owners := []topology.NodeID{{Index: 1}, {Index: 2}, {Index: 3}}
	check := func(op string) {
		t.Helper()
		if err := n.replicaStoreConsistent(); err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
		if n.ReplicaCount() != len(ref) {
			t.Fatalf("after %s: store holds %d, map %d", op, n.ReplicaCount(), len(ref))
		}
		for k, want := range ref {
			if got, ok := n.lookupReplica(k); !ok || got != want {
				t.Fatalf("after %s: lookup %v = %+v %v, map %+v", op, k, got, ok, want)
			}
		}
		for _, o := range owners {
			for seq := SN(0); seq < 40; seq++ {
				if _, ok := ref[replicaKey{o, seq}]; !ok {
					if _, found := n.lookupReplica(replicaKey{o, seq}); found {
						t.Fatalf("after %s: lookup finds %d of %v, map does not", op, seq, o)
					}
				}
			}
		}
	}
	for step := 0; step < 2000; step++ {
		switch k := rng.Intn(20); {
		case k < 14:
			r := Replica{Owner: owners[rng.Intn(3)], Seq: SN(rng.Intn(40)), Size: 1 + rng.Intn(100)}
			n.storeReplica(r)
			ref[replicaKey{r.Owner, r.Seq}] = r
			check("store")
		case k < 17:
			th := SN(rng.Intn(40))
			n.dropReplicasBelow(th)
			for key := range ref {
				if key.seq < th {
					delete(ref, key)
				}
			}
			check("prefix drop")
		case k < 19:
			sn := SN(rng.Intn(40))
			n.dropReplicasAbove(sn)
			for key := range ref {
				if key.seq > sn {
					delete(ref, key)
				}
			}
			check("suffix drop")
		default:
			n.resetReplicas()
			clear(ref)
			check("reset")
		}
	}
}
