package core

import (
	"testing"

	"repro/internal/topology"
)

// storedSNs lists the SNs of n's stored CLCs, oldest first.
func storedSNs(n *Node) []SN {
	sns := make([]SN, n.chain.Len())
	for i, r := range n.chain.Recs {
		sns[i] = r.SN
	}
	return sns
}

// TestStoredCLCsStaySNOrdered pins the invariant deliverIntra's tail
// scan relies on — n.clcs strictly increasing in SN — across every
// site that rewrites the list (commit, GC drop, rollback truncation,
// crash recovery), and checks after each that a straggler folds into
// exactly the checkpoints whose line it crossed.
func TestStoredCLCsStaySNOrdered(t *testing.T) {
	b := newTestbed(t, []int{3, 2}, 1, false)
	b.node(0, 0).cfg.GCInitiator = true
	receiver, peer := b.node(0, 2), b.node(0, 1)
	var seq uint64

	check := func(stage string) {
		t.Helper()
		for _, n := range b.nodes {
			if err := n.clcsOrdered(); err != nil {
				t.Fatalf("%s: node %v: %v", stage, n.ID(), err)
			}
		}
		// A straggler sent under the oldest stored SN crosses every
		// later line; one sent under the current SN crosses none.
		sns := storedSNs(receiver)
		before := make([]int, len(sns))
		for i, r := range all(&receiver.clcs) {
			before[i] = len(r.lateLog)
		}
		for _, sendSN := range []SN{sns[0], sns[len(sns)/2], receiver.SN()} {
			seq++
			receiver.OnMessage(peer.ID(), AppMsg{
				MsgID: 9000 + seq, Payload: payload(peer.ID(), 9000+seq),
				SrcEpoch: receiver.CurrentEpoch(), SendSN: sendSN,
			})
			for i, r := range all(&receiver.clcs) {
				want := before[i]
				if sns[i] > sendSN {
					want++
				}
				if got := len(r.lateLog); got != want {
					t.Fatalf("%s: straggler sent at SN %d: CLC %d holds %d late messages, want %d (stored %v)",
						stage, sendSN, sns[i], got, want, sns)
				}
				before[i] = want
			}
		}
		if err := receiver.CheckStoredHistory(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	for k := 0; k < 4; k++ {
		b.commitCLC(0)
		b.commitCLC(1)
	}
	check("commit")

	// A dependency keeps several CLCs of cluster 0 alive through the GC.
	b.node(1, 0).Send(b.node(0, 1).ID(), payload(b.node(1, 0).ID(), 1))
	b.pump()
	b.commitCLC(0)
	b.commitCLC(0)
	b.node(0, 0).OnTimer(TimerGC)
	b.pump()
	if b.stats["gc.clcs_removed"] == 0 {
		t.Fatal("GC dropped nothing")
	}
	check("GC drop")

	// A failure in cluster 1 cascades: cluster 0 truncates its suffix.
	b.node(1, 1).Fail()
	b.node(1, 1).Restart()
	b.node(1, 0).OnFailureDetected(b.node(1, 1).ID())
	b.pump()
	if b.stats["storage.recovered_states"] != 1 {
		t.Fatalf("recovered states = %d", b.stats["storage.recovered_states"])
	}
	check("rollback")

	// The receiver itself crashes and rebuilds its list from its
	// neighbour's metadata.
	b.commitCLC(0)
	receiver.Fail()
	receiver.Restart()
	b.node(0, 0).OnFailureDetected(receiver.ID())
	b.pump()
	if receiver.LostState() || receiver.StoredCount() < 2 {
		t.Fatalf("receiver not rebuilt: lost=%v stored=%d", receiver.LostState(), receiver.StoredCount())
	}
	b.commitCLC(0)
	check("recovery")
}

// TestLogTrimThenReReplicate: a mirrored entry dropped by a trim must
// be stored again when it is pushed again, not refused as a duplicate
// — the MsgID set has to forget what the slice forgets.
func TestLogTrimThenReReplicate(t *testing.T) {
	b := newTestbed(t, []int{2, 1}, 1, false)
	sender, holder := b.node(0, 1), b.node(0, 0)
	dst := topology.NodeID{Cluster: 1}
	for seq := uint64(1); seq <= 3; seq++ {
		sender.Send(dst, payload(sender.ID(), seq))
	}
	b.pump()
	if got := holder.mirrorLen(sender.ID()); got != 3 {
		t.Fatalf("mirrored = %d, want 3", got)
	}
	mirrored := all(&holder.mirrorLogs[sender.ID()].entries)
	bytesBefore := holder.StorageBytes()

	// The owner keeps only the middle entry.
	holder.OnMessage(sender.ID(), LogTrim{Kept: []uint64{mirrored[1].MsgID}})
	if got := holder.mirrorLen(sender.ID()); got != 1 {
		t.Fatalf("after trim mirrored = %d, want 1", got)
	}
	if got, want := holder.StorageBytes(), bytesBefore-uint64(mirrored[0].Payload.Size+mirrored[2].Payload.Size); got != want {
		t.Fatalf("after trim StorageBytes = %d, want %d", got, want)
	}

	// Everything arrives again: the survivor is a duplicate, the two
	// trimmed entries are new.
	for _, m := range mirrored {
		holder.OnMessage(sender.ID(), m)
	}
	if got := holder.mirrorLen(sender.ID()); got != 3 {
		t.Fatalf("after re-replication mirrored = %d, want 3", got)
	}
	if got := holder.StorageBytes(); got != bytesBefore {
		t.Fatalf("after re-replication StorageBytes = %d, want %d", got, bytesBefore)
	}
	if err := holder.CheckStoredHistory(); err != nil {
		t.Fatal(err)
	}
}
