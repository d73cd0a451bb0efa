package core

import (
	"fmt"

	"repro/internal/topology"
)

// The full-history walks the running totals and indexes replaced. They
// are the reference the O(1) paths are checked against: after every
// event of a run they must agree exactly.

// recomputeStorageBytes is StorageBytes by walking every store.
func (n *Node) recomputeStorageBytes() uint64 {
	var total uint64
	for _, r := range n.clcs {
		if !r.remote {
			total += uint64(r.stateSize)
		}
		for _, l := range r.lateLog {
			total += uint64(l.msg.Payload.Size)
		}
	}
	for _, rep := range n.replicas {
		total += uint64(rep.Size)
	}
	for _, e := range n.log {
		total += uint64(e.payload.Size)
	}
	for _, ml := range n.mirrorLogs {
		for _, e := range ml.entries {
			total += uint64(e.Payload.Size)
		}
	}
	return total
}

// logIndexConsistent checks that the MsgID index holds exactly the log:
// every entry is found under its own MsgID (so a linear first-match
// scan and the index agree) and nothing else is indexed.
func (n *Node) logIndexConsistent() error {
	if len(n.logIndex) != len(n.log) {
		return fmt.Errorf("log index holds %d ids for %d entries", len(n.logIndex), len(n.log))
	}
	for i, e := range n.log {
		if n.logIndex[e.msgID] != e {
			return fmt.Errorf("log[%d] (msg %d) is not the entry its id indexes", i, e.msgID)
		}
	}
	return nil
}

// mirrorSetConsistent checks each owner's MsgID set against its
// mirrored slice: same ids, no duplicates.
func (n *Node) mirrorSetConsistent() error {
	for owner, ml := range n.mirrorLogs {
		if len(ml.ids) != len(ml.entries) {
			return fmt.Errorf("mirror of %v: %d ids for %d entries", owner, len(ml.ids), len(ml.entries))
		}
		for _, e := range ml.entries {
			if _, ok := ml.ids[e.MsgID]; !ok {
				return fmt.Errorf("mirror of %v: msg %d is not in the id set", owner, e.MsgID)
			}
		}
	}
	return nil
}

// clcsOrdered checks that the stored CLCs are strictly increasing in
// SN, which deliverIntra's tail scan relies on.
func (n *Node) clcsOrdered() error {
	for i := 1; i < len(n.clcs); i++ {
		if n.clcs[i-1].meta.SN >= n.clcs[i].meta.SN {
			return fmt.Errorf("stored CLCs out of order: SN %d before SN %d",
				n.clcs[i-1].meta.SN, n.clcs[i].meta.SN)
		}
	}
	return nil
}

// CheckStoredHistory compares every running total and index of the
// stored history with its reference walk.
func (n *Node) CheckStoredHistory() error {
	if got, want := n.StorageBytes(), n.recomputeStorageBytes(); got != want {
		return fmt.Errorf("node %v: StorageBytes %d, walk %d", n.id, got, want)
	}
	for _, err := range []error{n.logIndexConsistent(), n.mirrorSetConsistent(), n.clcsOrdered()} {
		if err != nil {
			return fmt.Errorf("node %v: %w", n.id, err)
		}
	}
	return nil
}

// mirrorLen is the number of log entries mirrored here for owner.
func (n *Node) mirrorLen(owner topology.NodeID) int {
	if ml := n.mirrorLogs[owner]; ml != nil {
		return len(ml.entries)
	}
	return 0
}

// dropOldestCLC and dropNewestMirror undo one append in O(1), so a
// benchmark can hold its history at a fixed depth.

func (n *Node) dropOldestCLC() {
	n.clcBytes -= n.clcs[0].storedBytes()
	n.clcs = n.clcs[1:]
}

func (n *Node) dropNewestMirror(owner topology.NodeID) {
	ml := n.mirrorLogs[owner]
	last := ml.entries[len(ml.entries)-1]
	ml.entries = ml.entries[:len(ml.entries)-1]
	delete(ml.ids, last.MsgID)
	n.mirrorBytes -= uint64(last.Payload.Size)
}
