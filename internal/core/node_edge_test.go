package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topology"
)

// TestStragglerFoldsIntoCheckpoint delivers an intra-cluster message
// whose send predates a committed checkpoint: the receiver must fold it
// into that checkpoint's channel state so a restore re-delivers it
// (no lost in-transit messages, §2.2).
func TestStragglerFoldsIntoCheckpoint(t *testing.T) {
	b := newTestbed(t, []int{3}, 1, false)
	b.commitCLC(0) // SN 2
	receiver := b.node(0, 2)

	// Hand-craft a straggler: sent under SN 1, arriving at SN 2.
	late := AppMsg{
		MsgID:      991,
		Payload:    payload(b.node(0, 1).ID(), 77),
		SrcCluster: 0,
		SrcEpoch:   0,
		SendSN:     1,
	}
	receiver.OnMessage(b.node(0, 1).ID(), late)
	if got := len(b.app(0, 2).delivered); got != 1 {
		t.Fatalf("straggler not delivered: %d", got)
	}
	if b.stats["app.late_logged"] != 1 {
		t.Fatal("straggler not folded into the checkpoint")
	}

	// Roll the cluster back to CLC 2: the straggler must be
	// re-delivered from the channel state.
	b.node(0, 1).Fail()
	b.node(0, 1).Restart()
	b.node(0, 0).OnFailureDetected(b.node(0, 1).ID())
	b.pump()
	found := 0
	for _, id := range b.app(0, 2).delivered {
		if id.Seq == 77 {
			found++
		}
	}
	if found == 0 {
		t.Fatal("straggler lost after restore")
	}
	if b.stats["app.redelivered_late"] == 0 {
		t.Fatal("late log not replayed")
	}
}

// TestStaleEpochMessagesDropped verifies that traffic from an aborted
// execution is discarded.
func TestStaleEpochMessagesDropped(t *testing.T) {
	b := newTestbed(t, []int{2, 1}, 1, false)
	// Roll cluster 0 forward one epoch.
	b.node(0, 1).Fail()
	b.node(0, 1).Restart()
	b.node(0, 0).OnFailureDetected(b.node(0, 1).ID())
	b.pump()
	if b.node(0, 0).CurrentEpoch() != 1 {
		t.Fatal("epoch not bumped")
	}

	// An intra message from epoch 0 arrives late: dropped.
	stale := AppMsg{MsgID: 5, Payload: payload(b.node(0, 1).ID(), 9), SrcCluster: 0, SrcEpoch: 0, SendSN: 1}
	before := len(b.app(0, 0).delivered)
	b.node(0, 0).OnMessage(b.node(0, 1).ID(), stale)
	if len(b.app(0, 0).delivered) != before {
		t.Fatal("stale intra message delivered")
	}
	if b.stats["app.dropped_stale"] == 0 {
		t.Fatal("no stale drop recorded")
	}

	// Inter-cluster: cluster 1 learned epoch 1 from the alert; an
	// epoch-0 message from cluster 0 is stale there too.
	staleInter := AppMsg{MsgID: 6, Payload: payload(b.node(0, 0).ID(), 10), SrcCluster: 0, SrcEpoch: 0, SendSN: 1}
	beforeInter := len(b.app(1, 0).delivered)
	b.node(1, 0).OnMessage(b.node(0, 0).ID(), staleInter)
	if len(b.app(1, 0).delivered) != beforeInter {
		t.Fatal("stale inter message delivered")
	}
}

// TestResendDeferredUntilLocalRollback checks the DstEpoch mechanism: a
// resent message that overtakes the receiver's own rollback command is
// parked and delivered only after the receiver reaches that epoch.
func TestResendDeferredUntilLocalRollback(t *testing.T) {
	b := newTestbed(t, []int{1, 2}, 1, false)
	receiver := b.node(1, 1)

	// A resend targeted at epoch 1 arrives while the receiver is still
	// at epoch 0.
	resend := AppMsg{
		MsgID: 7, Payload: payload(b.node(0, 0).ID(), 42),
		SrcCluster: 0, SrcEpoch: 0, SendSN: 1, Resend: true, DstEpoch: 1,
	}
	receiver.OnMessage(b.node(0, 0).ID(), resend)
	if len(b.app(1, 1).delivered) != 0 {
		t.Fatal("future-epoch resend delivered early")
	}
	if b.stats["app.deferred_epoch"] != 1 {
		t.Fatal("resend not deferred")
	}

	// The receiver's cluster now rolls back (epoch 1): the parked
	// message is released.
	b.node(1, 0).Fail()
	b.node(1, 0).Restart()
	b.node(1, 1).OnFailureDetected(b.node(1, 0).ID())
	b.pump()
	if got := len(b.app(1, 1).delivered); got != 1 {
		t.Fatalf("deferred resend not released: %d", got)
	}
}

// TestInterDeliveryDeferredDuringFreeze: an inter-cluster message
// arriving mid-2PC is queued and handled only after the commit
// ("application messages are queued", §3.1).
func TestInterDeliveryDeferredDuringFreeze(t *testing.T) {
	b := newTestbed(t, []int{2, 1}, 1, false)
	leader := b.node(0, 0)
	leader.OnTimer(TimerCLC) // freezes the leader immediately
	if !leader.Frozen() {
		t.Fatal("not frozen")
	}
	m := AppMsg{MsgID: 3, Payload: payload(b.node(1, 0).ID(), 5), SrcCluster: 1, SrcEpoch: 0, SendSN: 1}
	leader.OnMessage(b.node(1, 0).ID(), m)
	if len(b.app(0, 0).delivered) != 0 {
		t.Fatal("delivered during freeze")
	}
	if b.stats["app.deferred_frozen"] != 1 {
		t.Fatal("not deferred")
	}
	b.pump() // the 2PC completes; the queued message then forces a CLC
	if len(b.app(0, 0).delivered) != 1 {
		t.Fatal("deferred message never delivered")
	}
	// The dependency (piggy 1 > 0) forced a second checkpoint after the
	// unforced one.
	if got := b.stats["clc.committed.c0.forced"]; got != 1 {
		t.Fatalf("forced = %d", got)
	}
}

// TestForceCoalescing: two held messages demanding different DDV
// entries while a 2PC is in flight coalesce into a single forced CLC
// (the leader merges pending targets at commit).
func TestForceCoalescing(t *testing.T) {
	b := newTestbed(t, []int{1, 1, 2}, 1, false)
	dst := b.node(2, 1) // non-leader receiver: forces travel as messages
	b.commitCLC(0)      // c0 at 2
	b.commitCLC(1)      // c1 at 2

	// Both arrive before the leader's 2PC commits: one forced CLC
	// covers both dependencies.
	m0 := AppMsg{MsgID: 1, Payload: payload(b.node(0, 0).ID(), 1), SrcCluster: 0, SendSN: 2}
	m1 := AppMsg{MsgID: 1, Payload: payload(b.node(1, 0).ID(), 1), SrcCluster: 1, SendSN: 2}
	dst.OnMessage(b.node(0, 0).ID(), m0)
	dst.OnMessage(b.node(1, 0).ID(), m1)
	b.pump()
	if got := len(b.app(2, 1).delivered); got != 2 {
		t.Fatalf("delivered = %d", got)
	}
	if got := dst.DDVSnapshot(); !got.Equal(DDV{2, 2, 2}) {
		t.Fatalf("ddv = %v", got)
	}
	if forced := b.stats["clc.committed.c2.forced"]; forced != 1 {
		t.Fatalf("forced = %d, want 1 (coalesced)", forced)
	}

	// Contrast: on a single-node cluster each force commits instantly
	// (no in-flight window), so the same pair costs two forced CLCs.
	solo := newTestbed(t, []int{1, 1, 1}, 0, false)
	solo.commitCLC(0)
	solo.commitCLC(1)
	soloDst := solo.node(2, 0)
	soloDst.OnMessage(solo.node(0, 0).ID(), m0)
	soloDst.OnMessage(solo.node(1, 0).ID(), m1)
	solo.pump()
	if forced := solo.stats["clc.committed.c2.forced"]; forced != 2 {
		t.Fatalf("solo forced = %d, want 2", forced)
	}
}

// TestForceDemandWireForms: a member's forced-CLC demands leave its
// leader with the same pending list on both wires. The member ships
// the raised pairs on the delta wire, and its DDV with the pairs
// applied on the dense one; the leader, busy with a 2PC, keeps each
// index once at its largest SN, in first-raise order, and leaves out a
// dense demand's entries at or below its own DDV. A force-all member's
// re-demand for a held message names no entry, and on the delta wire
// carries no dense vector either.
func TestForceDemandWireForms(t *testing.T) {
	demands := [][]DDVPair{
		{{Idx: 3, SN: 2}},
		{{Idx: 1, SN: 5}},
		{{Idx: 1, SN: 7}, {Idx: 3, SN: 4}},
		{{Idx: 1, SN: 6}, {Idx: 3, SN: 1}},
	}
	want := []DDVPair{{Idx: 3, SN: 4}, {Idx: 1, SN: 7}}
	isForce := func(m sentMsg) bool { _, ok := m.msg.(*Box[ForceCLC]); return ok }
	lastForce := func(b *testbed) ForceCLC {
		m := b.queue[len(b.queue)-1]
		if !isForce(m) {
			t.Fatalf("last message sent is %T, not a ForceCLC", m.msg)
		}
		return m.msg.(*Box[ForceCLC]).M
	}
	for _, dense := range []bool{false, true} {
		b := newTestbedWire(t, []int{2, 1, 1, 1}, 1, false, false, dense)
		leader, member, c2 := b.node(0, 0), b.node(0, 1), b.node(2, 0)
		// c0 depends on c2: entry 2 is non-zero on both nodes of c0.
		b.commitCLC(2)
		c2.Send(member.ID(), payload(c2.ID(), 1))
		b.pump()
		if leader.ddv[2] == 0 || member.ddv[2] != leader.ddv[2] {
			t.Fatalf("dense=%v: entry 2 is %d at the leader, %d at the member", dense, leader.ddv[2], member.ddv[2])
		}

		// An unforced 2PC stays open: the demands wait at the leader.
		b.withhold = func(m sentMsg) bool { return !isForce(m) }
		leader.OnTimer(TimerCLC)
		for _, d := range demands {
			member.requestForce(d, false)
			got := lastForce(b)
			if dense {
				target := member.ddv.Clone()
				target.applyPairs(d)
				if !got.NewDDV.Equal(target) || got.Pairs != nil {
					t.Fatalf("dense demand %v went out as %+v, want NewDDV %v", d, got, target)
				}
			} else if got.NewDDV != nil || !slices.Equal(got.Pairs, d) || got.Width != 4 {
				t.Fatalf("delta demand %v went out as %+v", d, got)
			}
			b.pump()
		}
		if !slices.Equal(leader.pending, want) {
			t.Fatalf("dense=%v: pending %v, want %v", dense, leader.pending, want)
		}
		b.release()
		b.pump()
		for _, n := range []*Node{leader, member} {
			if n.ddv[1] != 7 || n.ddv[3] != 4 {
				t.Fatalf("dense=%v: %v committed %v, want entries 1 and 3 at 7 and 4", dense, n.ID(), n.ddv)
			}
		}
		if len(leader.pending) != 0 {
			t.Fatalf("dense=%v: pending %v survives the commit that covers it", dense, leader.pending)
		}

		fa := newTestbedWire(t, []int{2, 1}, 1, false, false, dense)
		for _, n := range fa.nodes {
			n.cfg.Mode = ModeForceAll
		}
		member, src := fa.node(0, 1), fa.node(1, 0)
		held := AppMsg{MsgID: 1, Payload: payload(src.ID(), 1), SrcCluster: 1, SendSN: 1}
		member.heldInter = append(member.heldInter, inbound{src: src.ID(), msg: held, heldAt: member.sn})
		member.reexamineHeld()
		got := lastForce(fa)
		if !got.Always || got.Pairs != nil || dense != (got.NewDDV != nil) || dense && !got.NewDDV.Equal(member.ddv) {
			t.Fatalf("dense=%v: force-all re-demand went out as %+v", dense, got)
		}
		fa.pump()
		if n := len(fa.app(0, 1).delivered); n != 1 {
			t.Fatalf("dense=%v: %d held messages delivered after the re-demanded CLC, want 1", dense, n)
		}
	}
}

// TestHeldMessageSurvivesLeaderRecovery: a message arriving while the
// receiver cluster's leader is mid-recovery gets held (the ForceCLC
// request dies at the lostState leader), is discarded by the cluster's
// rollback, and must come back through the sender's log: the rollback
// alert makes the (unacknowledged) entry resend, the resend re-raises
// the force at the now-recovered leader, and the message finally
// delivers — all with infinite unforced-CLC timers.
func TestHeldMessageSurvivesLeaderRecovery(t *testing.T) {
	b := newTestbed(t, []int{1, 2}, 1, false)
	src := b.node(0, 0)
	receiver := b.node(1, 1)

	// The leader crashes (restarting empty); traffic keeps flowing.
	b.node(1, 0).Fail()
	b.node(1, 0).Restart()
	src.Send(receiver.ID(), payload(src.ID(), 1))
	b.pump()
	if len(b.app(1, 1).delivered) != 0 {
		t.Fatal("delivered without the forced CLC")
	}
	if src.log[0].acked {
		t.Fatal("held message acked prematurely")
	}

	// Detection triggers the rollback: recovery, alert, resend, forced
	// CLC, delivery.
	receiver.OnFailureDetected(b.node(1, 0).ID())
	b.pump()
	if got := b.app(1, 1).delivered; len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("delivered = %v", got)
	}
	if b.stats["clc.committed.c1.forced"] == 0 {
		t.Fatal("no forced CLC for the resent message")
	}
	if !src.log[0].acked {
		t.Fatal("resend not acknowledged")
	}
}

// TestLogMirroringAndRecovery: a crashed sender recovers its message
// log from the neighbour's mirror, so a later receiver rollback still
// gets its resends.
func TestLogMirroringAndRecovery(t *testing.T) {
	b := newTestbed(t, []int{2, 1}, 1, false)
	sender := b.node(0, 1)
	holder := b.node(0, 0) // (index+1)%2 of node 1 is node 0

	sender.Send(b.node(1, 0).ID(), payload(sender.ID(), 1))
	b.pump()
	if got := holder.mirrorLen(sender.ID()); got != 1 {
		t.Fatalf("mirror entries at holder = %d", got)
	}
	// A checkpoint captures the send; the cluster will roll back to it.
	b.commitCLC(0)

	// The sender crashes and recovers: the entry's send is part of the
	// restored state (sendSN 1 < restored SN 2), so the mirror must
	// hand the entry back.
	sender.Fail()
	sender.Restart()
	holder.OnFailureDetected(sender.ID())
	b.pump()
	if got := sender.LogLen(); got != 1 {
		t.Fatalf("recovered log entries = %d", got)
	}
	if b.stats["log.recovered_entries"] != 1 {
		t.Fatal("log recovery not recorded")
	}

	// Contrast: had the cluster rolled back *behind* the send, the
	// entry would be dropped — the app re-executes the send instead.
	// (Covered by TestRandomizedProtocolStress via replay.)

	// A receiver-cluster rollback now triggers a resend of the
	// recovered entry.
	resentBefore := b.stats["log.resent"] + b.stats["log.resent_after_recovery"]
	sender.OnMessage(b.node(1, 0).ID(), RollbackAlert{Cluster: 1, NewSN: 1, NewEpoch: 1})
	resent := b.stats["log.resent"] + b.stats["log.resent_after_recovery"] - resentBefore
	if resent < 1 {
		t.Fatalf("resent = %d", resent)
	}
	b.queue = nil
}

// TestGCLogTrimReachesMirror: after the collector purges acknowledged
// log entries, the neighbour's mirror shrinks too.
func TestGCLogTrimReachesMirror(t *testing.T) {
	b := newTestbed(t, []int{2, 1}, 1, false)
	b.node(0, 0).cfg.GCInitiator = true
	sender, holder := b.node(0, 1), b.node(0, 0)

	sender.Send(b.node(1, 0).ID(), payload(sender.ID(), 1)) // forces CLC in c1, acked with 2
	b.pump()
	// Another CLC in the sender's cluster keeps a failure there from
	// dragging the receiver back to SN 2 (its oldest qualifying target
	// would then re-need the entry). With it, the receiver's smallest
	// rollback SN is 3 > ackSN 2, so the entry is collectable.
	b.commitCLC(0)
	b.commitCLC(1)
	b.node(0, 0).OnTimer(TimerGC)
	b.pump()
	if got := sender.LogLen(); got != 0 {
		t.Fatalf("log after GC = %d", got)
	}
	if got := holder.mirrorLen(sender.ID()); got != 0 {
		t.Fatalf("mirror after GC trim = %d", got)
	}
}

// TestSimultaneousFaultsSameCluster: with replication degree 2, two
// nodes of one cluster can be down at once — the second detection
// restarts the rollback under a fresh epoch, and both restarted nodes
// recover their states from whichever holders survived (§7).
func TestSimultaneousFaultsSameCluster(t *testing.T) {
	b := newTestbed(t, []int{4, 1}, 2, false)
	b.commitCLC(0) // SN 2, states replicated twice

	// Two adjacent nodes crash together (adjacent is the worst case:
	// node 1 is a holder for some of node 2's neighbours' states).
	b.node(0, 1).Fail()
	b.node(0, 2).Fail()
	b.node(0, 1).Restart()
	b.node(0, 2).Restart()
	// Detections arrive one after the other at the coordinator.
	b.node(0, 0).OnFailureDetected(b.node(0, 1).ID())
	b.node(0, 0).OnFailureDetected(b.node(0, 2).ID())
	b.pump()

	if b.stats["rollback.restarted.c0"] == 0 {
		t.Fatal("second detection did not restart the rollback")
	}
	for i := 0; i < 4; i++ {
		n := b.node(0, i)
		if n.LostState() {
			t.Fatalf("node %d never recovered", i)
		}
		if n.SN() != 2 {
			t.Fatalf("node %d sn=%d, want 2", i, n.SN())
		}
		if n.Frozen() {
			t.Fatalf("node %d stuck frozen", i)
		}
	}
	if b.stats["storage.recovered_states"] < 2 {
		t.Fatalf("recovered = %d", b.stats["storage.recovered_states"])
	}
}

// TestRandomizedProtocolStress drives random operations (sends,
// checkpoints, crashes with recovery, garbage collections) through the
// synchronous testbed and asserts the protocol's global invariants
// after every quiescent point.
func TestRandomizedProtocolStress(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := []int{1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3)}
		b := newTestbed(t, sizes, 1, rng.Intn(2) == 0)
		b.node(0, 0).cfg.GCInitiator = true

		var seq uint64
		for op := 0; op < 120; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // application send
				src := topology.NodeID{
					Cluster: topology.ClusterID(rng.Intn(3)),
					Index:   0,
				}
				src.Index = rng.Intn(sizes[src.Cluster])
				dst := topology.NodeID{Cluster: topology.ClusterID(rng.Intn(3))}
				dst.Index = rng.Intn(sizes[dst.Cluster])
				if src == dst {
					continue
				}
				seq++
				if n := b.nodes[src]; !n.Failed() {
					n.Send(dst, payload(src, seq))
				}
			case 5, 6: // unforced checkpoint somewhere
				b.node(rng.Intn(3), 0).OnTimer(TimerCLC)
			case 7: // garbage collection
				b.node(0, 0).OnTimer(TimerGC)
			case 8, 9: // crash + immediate detection/recovery
				c := rng.Intn(3)
				if sizes[c] < 2 {
					continue
				}
				victim := b.node(c, 1+rng.Intn(sizes[c]-1))
				if victim.Failed() {
					continue
				}
				victim.Fail()
				victim.Restart()
				b.node(c, 0).OnFailureDetected(victim.ID())
			}
			b.pump()

			// Invariants at quiescence.
			for c := 0; c < 3; c++ {
				ref := b.node(c, 0)
				for i := 1; i < sizes[c]; i++ {
					n := b.node(c, i)
					if n.SN() != ref.SN() {
						t.Fatalf("seed=%d op=%d: cluster %d SN split %d vs %d",
							seed, op, c, n.SN(), ref.SN())
					}
					if !n.DDVSnapshot().Equal(ref.DDVSnapshot()) {
						t.Fatalf("seed=%d op=%d: cluster %d DDV split", seed, op, c)
					}
					if n.Frozen() {
						t.Fatalf("seed=%d op=%d: node %v stuck frozen", seed, op, n.ID())
					}
				}
				if ref.StoredCount() == 0 {
					t.Fatalf("seed=%d op=%d: cluster %d has no checkpoints", seed, op, c)
				}
			}
			if b.stats["invariant.rollback_target_missing"] != 0 {
				t.Fatalf("seed=%d op=%d: rollback target missing", seed, op)
			}
			for _, n := range b.nodes {
				if !n.Failed() && n.LostState() {
					t.Fatalf("seed=%d op=%d: node %v never recovered", seed, op, n.ID())
				}
			}
		}
	}
}

// TestRollbackRefusesMissingCheckpoint: a RollbackCmd naming a
// checkpoint the node does not hold, and a RecoverStateResp whose chain
// lacks the awaited one or whose state is of another width, are refused
// and counted before they change anything. The recovering node keeps waiting, and a holder's real
// answer still completes its recovery.
func TestRollbackRefusesMissingCheckpoint(t *testing.T) {
	b := newTestbed(t, []int{3}, 1, false)
	b.commitCLC(0) // SN 2: records 1 and 2
	leader, member, holder := b.node(0, 0), b.node(0, 1), b.node(0, 2)

	sn, stored, epoch := member.SN(), member.StoredCount(), member.epoch
	member.OnMessage(leader.ID(), RollbackCmd{ToSN: 7, NewEpoch: epoch + 1})
	if member.SN() != sn || member.StoredCount() != stored || member.epoch != epoch || len(b.queue) != 0 {
		t.Fatalf("a refused command changed the node: sn %d->%d, stored %d->%d, epoch %d->%d, %d sends",
			sn, member.SN(), stored, member.StoredCount(), epoch, member.epoch, len(b.queue))
	}
	if got := b.stats["ctl.refused_rollback"]; got != 1 {
		t.Fatalf("ctl.refused_rollback = %d after the command, want 1", got)
	}

	// Restarted, the member asks the holders for checkpoint 2's state.
	member.Fail()
	member.Restart()
	member.OnMessage(leader.ID(), RollbackCmd{ToSN: 2, NewEpoch: epoch + 1})
	if member.recoverWait == nil || len(b.queue) == 0 {
		t.Fatal("the restarted member did not ask for its state")
	}
	asked := b.queue
	b.queue = nil
	anchor := SparseDDV{Width: 1, Pairs: []DDVPair{{Idx: 0, SN: 1}}}
	for i, c := range []struct {
		name  string
		chain Chain
		log   []LogMirror
	}{
		{"no checkpoint 2", Chain{Anchor: anchor, Recs: []ChainRec{{SN: 1}}}, nil},
		{"a 5-wide anchor", Chain{Anchor: SparseDDV{Width: 5, Pairs: []DDVPair{{Idx: 4, SN: 1}}}, Recs: []ChainRec{{SN: 1}, {SN: 2}}}, nil},
		{"a pair past the width", Chain{Anchor: anchor, Recs: []ChainRec{{SN: 1}, {SN: 2, Pairs: []DDVPair{{Idx: 9, SN: 3}}}}}, nil},
		{"a 3-wide mirrored piggyback", Chain{Anchor: anchor, Recs: []ChainRec{{SN: 1}, {SN: 2}}},
			[]LogMirror{{Owner: member.ID(), MsgID: 1, Piggy: SparseDDV{Width: 3}}}},
	} {
		member.OnMessage(holder.ID(), RecoverStateResp{Seq: 2, Epoch: epoch + 1, Owner: member.ID(),
			State: mockState{}, Chain: c.chain, Log: c.log})
		if !member.LostState() || member.recoverWait == nil || member.StoredCount() != 0 || len(b.queue) != 0 {
			t.Fatalf("%s: a refused response changed the node: lost %v, waiting %v, stored %d, %d sends",
				c.name, member.LostState(), member.recoverWait != nil, member.StoredCount(), len(b.queue))
		}
		if got, want := b.stats["ctl.refused_rollback"], uint64(i+2); got != want {
			t.Fatalf("%s: ctl.refused_rollback = %d, want %d", c.name, got, want)
		}
	}

	b.queue = asked
	b.pump()
	if member.LostState() || member.SN() != 2 || member.epoch != epoch+1 {
		t.Fatalf("recovery did not complete: lost %v, sn %d, epoch %d", member.LostState(), member.SN(), member.epoch)
	}
}
