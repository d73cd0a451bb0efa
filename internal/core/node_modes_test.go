package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// newModeTestbed builds a testbed whose nodes run the given protocol
// mode.
func newModeTestbed(t *testing.T, sizes []int, mode ProtocolMode) *testbed {
	t.Helper()
	b := newTestbed(t, sizes, 0, false)
	for _, n := range b.nodes {
		n.cfg.Mode = mode
	}
	return b
}

func TestForceAllForcesOnEveryMessage(t *testing.T) {
	b := newModeTestbed(t, []int{1, 1}, ModeForceAll)
	src, dst := b.node(0, 0), b.node(1, 0)

	// Three messages, no new sender checkpoints: HC3I would force once
	// (the first contact); force-all forces three times.
	for k := 1; k <= 3; k++ {
		src.Send(dst.ID(), payload(src.ID(), uint64(k)))
		b.pump()
		if got := len(b.app(1, 0).delivered); got != k {
			t.Fatalf("delivered = %d after message %d", got, k)
		}
		if got := dst.SN(); got != SN(k+1) {
			t.Fatalf("dst sn = %d after message %d (no forced CLC?)", got, k)
		}
	}
	if got := b.stats["clc.committed.c1.forced"]; got != 3 {
		t.Fatalf("forced = %d, want 3", got)
	}
}

func TestForceAllDeliversAfterCommitOnly(t *testing.T) {
	b := newModeTestbed(t, []int{1, 2}, ModeForceAll)
	src := b.node(0, 0)
	dst := b.node(1, 1) // non-leader receiver: force must route to leader
	src.Send(dst.ID(), payload(src.ID(), 1))
	b.pump()
	if got := len(b.app(1, 1).delivered); got != 1 {
		t.Fatalf("delivered = %d", got)
	}
	// The ack carries the post-commit SN ("local SN + 1").
	if e := src.log[0]; !e.acked || e.ackSN != 2 {
		t.Fatalf("ack = %+v", *e)
	}
}

func TestIndependentModeNeverForces(t *testing.T) {
	b := newModeTestbed(t, []int{1, 1}, ModeIndependent)
	src, dst := b.node(0, 0), b.node(1, 0)

	b.commitCLC(0) // sender at SN 2
	src.Send(dst.ID(), payload(src.ID(), 1))
	b.pump()
	// Delivered immediately, no forced CLC, dependency recorded lazily.
	if got := len(b.app(1, 0).delivered); got != 1 {
		t.Fatalf("delivered = %d", got)
	}
	if dst.SN() != 1 {
		t.Fatalf("dst sn = %d, want untouched 1", dst.SN())
	}
	if got := b.stats["clc.committed.c1.forced"]; got != 0 {
		t.Fatalf("forced = %d", got)
	}
	if got := dst.DDVSnapshot(); !got.Equal(DDV{2, 1}) {
		t.Fatalf("lazy ddv = %v", got)
	}
	// The lazy entry is folded into the next committed checkpoint.
	b.commitCLC(1)
	if got := dst.StoredMetas()[1].DDV; !got.Equal(DDV{2, 2}) {
		t.Fatalf("committed ddv = %v", got)
	}
}

func TestIndependentModeDominoRollback(t *testing.T) {
	b := newTestbed(t, []int{2, 2}, 1, false)
	for _, n := range b.nodes {
		n.cfg.Mode = ModeIndependent
	}
	src, dstl := b.node(0, 0), b.node(1, 0)

	// Interleave sender checkpoints and messages so every receiver
	// checkpoint depends on the previous sender interval:
	//   c0: CLC2  m1  CLC3  m2
	//   c1:      CLC2      CLC3
	for k := 0; k < 2; k++ {
		b.commitCLC(0)
		src.Send(b.node(1, 1).ID(), payload(src.ID(), uint64(k+1)))
		b.pump()
		b.commitCLC(1)
	}
	if got := dstl.DDVSnapshot()[0]; got != 3 {
		t.Fatalf("c1 committed ddv[c0] = %d, want 3", got)
	}

	// Cluster 0 fails back to its last CLC (SN 3): c1's entry is
	// 3 >= 3, and with no forced CLCs it must fall back behind the
	// dependency entirely — its newest checkpoint with entry < 3 is
	// CLC 2 (the domino step HC3I's forced checkpoint would avoid).
	b.node(0, 1).Fail()
	b.node(0, 1).Restart()
	src.OnFailureDetected(b.node(0, 1).ID())
	b.pump()
	if got := src.SN(); got != 3 {
		t.Fatalf("c0 rolled to %d", got)
	}
	if got := dstl.SN(); got != 2 {
		t.Fatalf("c1 rolled to %d, want domino to 2", got)
	}
	if b.stats["rollback.cascaded"] != 1 {
		t.Fatalf("cascades = %d", b.stats["rollback.cascaded"])
	}
}

func TestIndependentAckCarriesNodeDDV(t *testing.T) {
	// A non-leader's lazily recorded dependency must reach the commit
	// through its CLCAck.
	b := newModeTestbed(t, []int{1, 2}, ModeIndependent)
	src := b.node(0, 0)
	b.commitCLC(0)
	src.Send(b.node(1, 1).ID(), payload(src.ID(), 1)) // to the non-leader
	b.pump()
	if got := b.node(1, 1).DDVSnapshot()[0]; got != 2 {
		t.Fatalf("receiver ddv[c0] = %d", got)
	}
	if got := b.node(1, 0).DDVSnapshot()[0]; got != 0 {
		t.Fatalf("leader learned the dependency early: %v", b.node(1, 0).DDVSnapshot())
	}
	b.commitCLC(1)
	// After the commit every node of cluster 1 agrees on the entry.
	for i := 0; i < 2; i++ {
		if got := b.node(1, i).DDVSnapshot()[0]; got != 2 {
			t.Fatalf("node %d ddv[c0] = %d after commit", i, got)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeHC3I.String() != "hc3i" || ModeForceAll.String() != "force-all" ||
		ModeIndependent.String() != "independent" {
		t.Fatal("mode names")
	}
	if ProtocolMode(99).String() == "" {
		t.Fatal("unknown mode must still print")
	}
}

func TestNewestBelow(t *testing.T) {
	list := []Meta{
		{SN: 1, DDV: DDV{1, 0}},
		{SN: 2, DDV: DDV{2, 2}},
		{SN: 3, DDV: DDV{2, 5}},
	}
	if i := newestBelow(t, list, 1, 3); i != 1 {
		t.Fatalf("NewestBelow(c1,3) = %d, want 1", i)
	}
	if i := newestBelow(t, list, 1, 6); i != 2 {
		t.Fatalf("NewestBelow(c1,6) = %d, want 2", i)
	}
	if i := newestBelow(t, list, 1, 1); i != 0 {
		t.Fatalf("NewestBelow(c1,1) = %d, want 0", i)
	}
	if i := newestBelow(t, []Meta{{SN: 1, DDV: DDV{0, 7}}}, 1, 2); i != -1 {
		t.Fatalf("NewestBelow impossible = %d, want -1", i)
	}
}

// Property: on protocol-consistent histories, the HC3I target (oldest
// with entry >= s) sits immediately after the independent-mode target
// (newest with entry < s) whenever both exist — the forced checkpoint
// is exactly the boundary.
func TestRollbackTargetBoundaryProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		f := newAbstractFederation(3, seed)
		for s := 0; s < 80; s++ {
			f.step()
		}
		for j := 0; j < 3; j++ {
			for c := topology.ClusterID(0); c < 3; c++ {
				if int(c) == j {
					continue
				}
				s := f.sn[c]
				if s == 0 {
					continue
				}
				oldest := oldestWith(t, f.lists[j], c, s)
				newest := newestBelow(t, f.lists[j], c, s)
				if oldest == -1 {
					if newest != len(f.lists[j])-1 {
						t.Fatalf("seed=%d: no dependency but NewestBelow=%d", seed, newest)
					}
					continue
				}
				if newest != oldest-1 {
					t.Fatalf("seed=%d cluster=%d c=%d s=%d: oldest=%d newest=%d",
						seed, j, c, s, oldest, newest)
				}
			}
		}
	}
}

// keep sim import used when the testbed grows
var _ = sim.Second
