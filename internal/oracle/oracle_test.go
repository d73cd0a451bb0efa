package oracle

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

func node(c, i int) topology.NodeID {
	return topology.NodeID{Cluster: topology.ClusterID(c), Index: i}
}

// ddv builds a dense vector from literal entries.
func ddv(vals ...core.SN) core.DDV { return core.DDV(vals) }

// commit, restore, deliver, piggySend and gcDrop hand the oracle one
// protocol event of each observed kind.
func commit(o *Oracle, id topology.NodeID, seq core.SN, epoch core.Epoch, v core.DDV, pairs []core.DDVPair) {
	o.Observe(id, core.Event{Kind: core.EventCLCCommitted, Seq: seq, Epoch: epoch, DDV: v, Pairs: pairs})
}

func restore(o *Oracle, id topology.NodeID, toSN core.SN, newEpoch core.Epoch, v core.DDV) {
	o.Observe(id, core.Event{Kind: core.EventRestore, Seq: toSN, Epoch: newEpoch, DDV: v})
}

func deliver(o *Oracle, dst, src topology.NodeID, srcEpoch core.Epoch, sendSN core.SN, recvEpoch core.Epoch, recvSN core.SN) {
	o.Observe(dst, core.Event{Kind: core.EventDeliver, Peer: src, PeerEpoch: srcEpoch, Seq: sendSN, Epoch: recvEpoch, SN: recvSN})
}

func gcDrop(o *Oracle, id topology.NodeID, minSNs []core.SN) {
	o.Observe(id, core.Event{Kind: core.EventGCDrop, DDV: minSNs})
}

// commitCluster observes the same commit from every node of a 2-node
// cluster, the way a real 2PC reports it.
func commitCluster(o *Oracle, c int, seq core.SN, epoch core.Epoch, v core.DDV) {
	commit(o, node(c, 0), seq, epoch, v, nil)
	commit(o, node(c, 1), seq, epoch, v, nil)
}

func wantViolation(t *testing.T, o *Oracle, substr string) {
	t.Helper()
	err := o.Err()
	if err == nil {
		t.Fatalf("expected a violation containing %q, oracle is clean", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("violation %q does not mention %q", err, substr)
	}
}

func TestCommitAdvanceAndAgreement(t *testing.T) {
	o := New(2)
	commitCluster(o, 0, 2, 0, ddv(2, 0))
	commitCluster(o, 0, 3, 0, ddv(3, 1))
	// Delta re-application of the same commit: pairs must agree.
	commit(o, node(0, 1), 3, 0, nil, []core.DDVPair{{Idx: 0, SN: 3}, {Idx: 1, SN: 1}})
	if err := o.Finish(); err != nil {
		t.Fatalf("clean history flagged: %v", err)
	}
}

func TestCommitMonotonicityViolation(t *testing.T) {
	o := New(2)
	commitCluster(o, 0, 2, 0, ddv(2, 5))
	// CLC 3 lowers the entry for cluster 1: 5 -> 4.
	commit(o, node(0, 0), 3, 0, nil, []core.DDVPair{{Idx: 0, SN: 3}, {Idx: 1, SN: 4}})
	wantViolation(t, o, "monotonicity")
}

func TestCommitAgreementViolation(t *testing.T) {
	o := New(2)
	commit(o, node(0, 0), 2, 0, ddv(2, 3), nil)
	commit(o, node(0, 1), 2, 0, ddv(2, 4), nil)
	wantViolation(t, o, "agreement")
}

// TestCommitAgreementCountsPairs: a node whose commit leaves out a pair
// the first node's commit shipped agrees on every pair it lists, and is
// still flagged.
func TestCommitAgreementCountsPairs(t *testing.T) {
	o := New(3)
	full := []core.DDVPair{{Idx: 0, SN: 2}, {Idx: 1, SN: 4}, {Idx: 2, SN: 1}}
	commit(o, node(0, 0), 2, 0, nil, full)
	commit(o, node(0, 1), 2, 0, nil, full)
	if err := o.Err(); err != nil {
		t.Fatalf("agreeing commits flagged: %v", err)
	}
	commit(o, node(0, 2), 2, 0, nil, full[:2])
	wantViolation(t, o, "commit agreement: c0n2 CLC 2 ships 2 pairs, cluster committed 3")
}

func TestCommitContinuityViolation(t *testing.T) {
	o := New(2)
	commit(o, node(0, 0), 4, 0, ddv(4, 0), nil) // skips 2 and 3
	wantViolation(t, o, "continuity")
}

func TestRollbackToMissingCheckpoint(t *testing.T) {
	o := New(2)
	commitCluster(o, 0, 2, 0, ddv(2, 0))
	restore(o, node(0, 0), 7, 1, ddv(7, 0))
	wantViolation(t, o, "no longer stores")
}

func TestRollbackAgreementAndStraggler(t *testing.T) {
	o := New(2)
	commitCluster(o, 0, 2, 0, ddv(2, 0))
	restore(o, node(0, 0), 2, 1, ddv(2, 0))
	restore(o, node(0, 1), 2, 1, ddv(2, 0)) // peer of the same wave
	// A second rollback supersedes; then a straggler re-executes the
	// first epoch's command — legal, and it must match the record.
	restore(o, node(0, 0), 1, 2, ddv(1, 0))
	restore(o, node(0, 1), 2, 1, ddv(2, 0)) // straggler, consistent
	if o.Err() != nil {
		t.Fatalf("legal straggler flagged: %v", o.Err())
	}
	restore(o, node(0, 1), 1, 1, ddv(1, 0)) // straggler, wrong target
	wantViolation(t, o, "rollback agreement")
}

func TestOrphanDeliveryCaught(t *testing.T) {
	o := New(2)
	commitCluster(o, 0, 2, 0, ddv(2, 0))
	// Cluster 1 delivers a message sent at cluster 0's SN 2...
	deliver(o, node(1, 0), node(0, 0), 0, 2, 0, 1)
	// ...then cluster 0 rolls back to CLC 2, discarding that send.
	restore(o, node(0, 0), 2, 1, ddv(2, 0))
	if o.Err() != nil {
		t.Fatalf("orphan obligation must not fire before Finish: %v", o.Err())
	}
	if err := o.Finish(); err == nil || !strings.Contains(err.Error(), "orphan") {
		t.Fatalf("unerased orphan not flagged: %v", err)
	}
}

func TestOrphanErasedByReceiverRollback(t *testing.T) {
	o := New(2)
	commitCluster(o, 0, 2, 0, ddv(2, 0))
	commitCluster(o, 1, 2, 0, ddv(2, 2)) // receiver's forced CLC covering the delivery
	deliver(o, node(1, 0), node(0, 0), 0, 2, 0, 2)
	restore(o, node(0, 0), 2, 1, ddv(2, 0))
	// The receiver's cascaded rollback to CLC 2 (recvSN 2 >= toSN 2)
	// erases the delivery: the obligation is discharged.
	restore(o, node(1, 0), 2, 1, ddv(2, 2))
	if err := o.Finish(); err != nil {
		t.Fatalf("erased orphan still flagged: %v", err)
	}
}

func TestDeliveryFromFutureEpochCaught(t *testing.T) {
	o := New(2)
	deliver(o, node(1, 0), node(0, 0), 3, 1, 0, 1)
	wantViolation(t, o, "epoch")
}

func TestDeliveryOfUncommittedSNCaught(t *testing.T) {
	o := New(2)
	deliver(o, node(1, 0), node(0, 0), 0, 9, 0, 1)
	wantViolation(t, o, "committed only")
}

func TestGCSafetyViolationCaught(t *testing.T) {
	o := New(2)
	commitCluster(o, 1, 2, 0, ddv(0, 2))
	commitCluster(o, 0, 2, 0, ddv(2, 2)) // c0's CLC 2 depends on c1 SN 2
	commitCluster(o, 0, 3, 0, ddv(3, 2))
	// A failure of cluster 1 restores its CLC 2 and alerts (1, 2);
	// cluster 0's line depends on it, so it must roll back to its CLC
	// 2 — the oldest with entry[1] >= 2. SmallestSNs therefore allows
	// at most {2, 2}; a threshold of 3 for cluster 0 drops the very
	// checkpoint that recovery needs.
	gcDrop(o, node(0, 0), []core.SN{3, 2})
	wantViolation(t, o, "gc safety")
}

func TestGCSafeDropAccepted(t *testing.T) {
	o := New(2)
	commitCluster(o, 0, 2, 0, ddv(2, 0))
	commitCluster(o, 0, 3, 0, ddv(3, 0))
	commitCluster(o, 1, 2, 0, ddv(3, 2)) // depends on c0's newest only
	chains := make([]core.Chain, 2)
	chains[0].Init(1, ddv(1, 0))
	chains[0].AppendVector(2, ddv(2, 0), ddv(1, 0))
	chains[0].AppendVector(3, ddv(3, 0), ddv(2, 0))
	chains[1].Init(1, ddv(0, 1))
	chains[1].AppendVector(2, ddv(3, 2), ddv(0, 1))
	// Both clusters run on their newest stored vectors: no patches.
	mins, err := core.SmallestSNs(chains, nil)
	if err != nil {
		t.Fatal(err)
	}
	gcDrop(o, node(0, 0), mins)
	gcDrop(o, node(0, 1), mins)
	gcDrop(o, node(1, 0), mins)
	if err := o.Finish(); err != nil {
		t.Fatalf("protocol-computed thresholds flagged: %v", err)
	}
}

// TestGCCacheInvalidatedByRollback: two drops of one threshold vector
// with a rollback between them. The first drop's analysis allows the
// vector; the rollback lowers cluster 1's safe minimum below its
// threshold, so the second drop must analyse again and flag it.
func TestGCCacheInvalidatedByRollback(t *testing.T) {
	o := New(2)
	commitCluster(o, 0, 2, 0, ddv(2, 0))
	commitCluster(o, 0, 3, 0, ddv(3, 0))
	commitCluster(o, 1, 2, 0, ddv(0, 2))
	commitCluster(o, 1, 3, 0, ddv(0, 3))
	mins := []core.SN{3, 3}
	gcDrop(o, node(0, 0), mins)
	if o.Err() != nil {
		t.Fatalf("safe thresholds flagged: %v", o.Err())
	}
	restore(o, node(1, 0), 2, 1, ddv(0, 2))
	gcDrop(o, node(1, 0), mins)
	wantViolation(t, o, "threshold 3 for cluster 1, but a failure could roll it back to 2")
}

// TestPriorEpochDeliveryBornOrphaned: a delivery whose send an earlier
// rollback already discarded is an orphan obligation from birth, found
// however many rollbacks came after the one that discarded it.
func TestPriorEpochDeliveryBornOrphaned(t *testing.T) {
	cases := []struct {
		srcEpoch core.Epoch
		sendSN   core.SN
		orphan   bool
	}{
		{0, 1, false}, // before both rollbacks' targets
		{0, 2, true},  // discarded by the epoch-1 rollback to CLC 2
		{1, 3, false}, // epoch 1, below the epoch-2 rollback's target
		{1, 4, true},  // discarded by the epoch-2 rollback to CLC 4
		{2, 4, false}, // the current epoch
	}
	for _, tc := range cases {
		o := New(2)
		commitCluster(o, 0, 2, 0, ddv(2, 0))
		restore(o, node(0, 0), 2, 1, ddv(2, 0))
		commitCluster(o, 0, 3, 1, ddv(3, 0))
		commitCluster(o, 0, 4, 1, ddv(4, 0))
		restore(o, node(0, 0), 4, 2, ddv(4, 0))
		deliver(o, node(1, 0), node(0, 0), tc.srcEpoch, tc.sendSN, 0, 1)
		err := o.Finish()
		if got := err != nil && strings.Contains(err.Error(), "orphan"); got != tc.orphan {
			t.Errorf("delivery of epoch %d SendSN %d: orphan=%v, want %v (%v)",
				tc.srcEpoch, tc.sendSN, got, tc.orphan, err)
		}
	}
}

func TestCommitLineDominationAtFinish(t *testing.T) {
	o := New(2)
	commitCluster(o, 0, 2, 0, ddv(2, 4))
	// Corrupt the shadow the way a protocol bug would: a rollback to
	// CLC 2 whose restored vector disagrees with the committed one.
	restore(o, node(0, 0), 2, 1, ddv(2, 9))
	wantViolation(t, o, "rollback")
}
