package core

import (
	"slices"

	"repro/internal/topology"
)

// This file implements cluster-level checkpointing (§3.1): the
// traditional two-phase commit run over the cluster's SAN. The leader
// (node 0 of each cluster) is the initiator; application messages are
// frozen between the request and the commit; each node stores its local
// state and replicates it to neighbour memory (stable storage) before
// acknowledging.

// onCLCTimer fires on the cluster leader when the unforced-CLC delay
// elapses ("each cluster takes its CLC periodically, independently from
// the others").
func (n *Node) onCLCTimer() {
	if !n.leader() {
		return
	}
	if n.inFlight || n.rbActive || n.lostState || n.phase != cpIdle {
		// Busy: skip this tick; commit/resume will re-arm the timer.
		n.env.SetTimer(TimerCLC, n.cfg.CLCPeriod)
		return
	}
	n.startCLC(false, nil)
}

// requestForce routes a forced-CLC demand to the cluster leader. pairs
// are the DDV entries the demand raises (they may be the node's
// pairScratch: nothing escapes the current event without a copy);
// always asks for an unconditional forced CLC (ModeForceAll).
func (n *Node) requestForce(pairs []DDVPair, always bool) {
	n.emit(Event{Kind: EventForceRequested})
	if n.leader() {
		n.pending = maxMerge(n.pending, pairs)
		n.pendingAlways = n.pendingAlways || always
		n.tryStartForced()
		return
	}
	if Mutate.DropForcePair && len(pairs) > 0 {
		pairs = pairs[:len(pairs)-1]
	}
	// Width prices the demand at its dense footprint (see messages.go).
	sendCtl(n, &n.ctl.force, n.leaderOf(n.cluster),
		ForceCLC{Epoch: n.epoch, Pairs: n.pairArena.Clone(pairs), Width: n.cfg.Clusters, Always: always})
}

// onForceCLC handles a forced-CLC demand at the leader.
func (n *Node) onForceCLC(src topology.NodeID, m ForceCLC) {
	if !n.pairsFit(m.Pairs) {
		n.emit(Event{Kind: EventRefuseControl})
		return
	}
	if !n.leader() || m.Epoch != n.epoch {
		return
	}
	n.pending = maxMerge(n.pending, m.Pairs)
	n.pendingAlways = n.pendingAlways || m.Always
	n.tryStartForced()
}

// tryStartForced starts a forced CLC for any pending entries still
// above the committed DDV (or unconditionally, when one is owed).
func (n *Node) tryStartForced() {
	if n.inFlight || n.rbActive || n.lostState || n.phase != cpIdle || (len(n.pending) == 0 && !n.pendingAlways) {
		return
	}
	pairs := n.pairScratch[:0]
	for _, p := range n.pending {
		if p.SN > n.ddv[p.Idx] {
			pairs = append(pairs, p)
		}
	}
	n.pairScratch = pairs
	if len(pairs) == 0 && !n.pendingAlways {
		n.pending = n.pending[:0]
		return
	}
	n.pendingAlways = false
	n.startCLC(true, pairs)
}

// startCLC opens the two-phase commit for the next checkpoint. Runs on
// the leader only. updatePairs (raised entries; may alias pairScratch)
// is nil for unforced CLCs; the participants adopt them at commit.
func (n *Node) startCLC(forced bool, updatePairs []DDVPair) {
	seq := n.sn + 1
	n.inFlight = true
	n.inFlightForced = forced
	n.inFlightSeq = seq
	n.inFlightSince = n.env.Now()
	for i := range n.ackedNodes {
		n.ackedNodes[i] = false
	}
	n.ackedCount = 0
	n.emit(Event{Kind: EventCLCRequest, Seq: seq, Forced: forced, Pairs: updatePairs})

	req := CLCRequest{Seq: seq, Epoch: n.epoch, Forced: forced}
	if forced {
		req.UpdateWidth = n.cfg.Clusters
	}
	sendToCluster(n, &n.ctl.req, req)
	n.prepareLocal(seq, forced)
}

// onCLCRequest is the participant side: freeze application traffic,
// snapshot local state, replicate it, then acknowledge.
func (n *Node) onCLCRequest(src topology.NodeID, m CLCRequest) {
	if m.Epoch != n.epoch || n.lostState {
		return
	}
	if n.phase != cpIdle {
		// The leader serializes CLCs, so this indicates a stale
		// retransmission; ignore.
		n.emit(Event{Kind: EventCLCRequestBusy, Seq: m.Seq, Phase: int(n.phase)})
		return
	}
	if m.Seq != n.sn+1 {
		n.emit(Event{Kind: EventCLCRequestStale, Seq: m.Seq, SN: n.sn})
		return
	}
	n.prepareLocal(m.Seq, m.Forced)
}

// prepareLocal performs the participant prepare step on this node
// (leader included).
func (n *Node) prepareLocal(seq SN, forced bool) {
	n.phase = cpPrepared
	n.prepSeq = seq
	n.frozenSends = true
	n.frozenDelivs = true
	state, size := n.app.Snapshot()
	n.provisional = clcRecord{forced: forced, at: n.env.Now(), state: state, stateSize: size}
	targets := n.replicaTargets()
	n.replWanted = len(targets)
	n.replGot = 0
	if n.replWanted == 0 {
		n.sendPrepAck(seq)
		return
	}
	// One box per holder, each a delivery of its own; the size is
	// computed once, from the value.
	sendEach(n, &n.ctl.rep, targets, Replica{Seq: seq, Epoch: n.epoch, Owner: n.id, State: state, Size: size})
}

// onReplica stores a neighbour's checkpoint part in local memory (the
// stable-storage implementation of §3.1) and confirms.
func (n *Node) onReplica(src topology.NodeID, m Replica) {
	if m.Epoch != n.epoch || src.Cluster != n.cluster {
		return
	}
	n.storeReplica(m)
	sendCtl(n, &n.ctl.repAck, m.Owner, ReplicaAck{Seq: m.Seq, Epoch: n.epoch, From: n.id})
}

// onReplicaAck counts stable-storage confirmations; the 2PC ack goes
// out only once the local state is safely replicated.
func (n *Node) onReplicaAck(src topology.NodeID, m ReplicaAck) {
	if m.Epoch != n.epoch || n.phase != cpPrepared || m.Seq != n.prepSeq {
		return
	}
	n.replGot++
	if n.replGot == n.replWanted {
		n.sendPrepAck(m.Seq)
	}
}

// sendPrepAck acknowledges the prepare phase to the leader. In
// ModeIndependent the ack carries the entries this node raised above
// the last committed vector (recvDirty), so the commit can merge the
// dependencies accumulated since the last checkpoint: the commit merge
// starts from a superset of that base, so the omitted entries are
// exact no-ops.
func (n *Node) sendPrepAck(seq SN) {
	var nodePairs []DDVPair
	if n.cfg.Mode == ModeIndependent {
		pairs := n.pairScratch[:0]
		for _, i := range n.recvDirty.Indices() {
			if v := n.ddv[i]; v > n.commitBase[i] {
				pairs = append(pairs, DDVPair{Idx: i, SN: v})
			}
		}
		if Mutate.DropAckPair && len(pairs) > 0 {
			pairs = pairs[:len(pairs)-1]
		}
		n.pairScratch = pairs
		nodePairs = n.pairArena.Clone(pairs)
	}
	if n.leader() {
		n.ackFrom(n.id.Index, seq, nodePairs)
		return
	}
	sendCtl(n, &n.ctl.ack, n.leaderOf(n.cluster), CLCAck{Seq: seq, Epoch: n.epoch, NodePairs: nodePairs})
}

// onCLCAck counts prepare acks at the leader.
func (n *Node) onCLCAck(src topology.NodeID, m CLCAck) {
	if !n.pairsFit(m.NodePairs) {
		n.emit(Event{Kind: EventRefuseControl})
		return
	}
	if !n.inFlight || m.Epoch != n.epoch || m.Seq != n.inFlightSeq {
		return
	}
	n.ackFrom(src.Index, m.Seq, m.NodePairs)
}

func (n *Node) ackFrom(index int, seq SN, nodePairs []DDVPair) {
	if !n.ackedNodes[index] {
		n.ackedNodes[index] = true
		n.ackedCount++
	}
	// Element-wise max is order-independent: accumulating on arrival
	// equals merging every ack at commit.
	n.acked = maxMerge(n.acked, nodePairs)
	if n.ackedCount < n.size {
		return
	}
	// Every node saved and replicated its state: commit. Raise the
	// commit vector in this leader's scratch and track every index that
	// can differ from commitBase — the leader's own lazy receipts
	// (recvDirty), forced entries, ack-accumulated entries and the new
	// sequence number. The pair list is the exact diff against the
	// previous commit, which every node of the cluster, this one
	// included, patches into its own base; the vector itself goes
	// nowhere.
	if n.vecScratch == nil {
		n.vecScratch = NewDDV(n.cfg.Clusters)
	}
	newDDV := n.vecScratch
	newDDV.CopyFrom(n.ddv)
	dirty := &n.commitScratch
	dirty.Reset()
	for _, i := range n.recvDirty.Indices() {
		dirty.Add(int(i))
	}
	if n.inFlightForced {
		for _, p := range n.pending {
			if topology.ClusterID(p.Idx) != n.cluster && p.SN > newDDV[p.Idx] {
				newDDV[p.Idx] = p.SN
				dirty.Add(int(p.Idx))
			}
		}
	}
	for _, p := range n.acked {
		if p.SN > newDDV[p.Idx] {
			newDDV[p.Idx] = p.SN
			dirty.Add(int(p.Idx))
		}
	}
	n.acked = n.acked[:0]
	newDDV[n.cluster] = seq
	dirty.Add(int(n.cluster))
	pairs := n.pairScratch[:0]
	for _, i := range dirty.Indices() {
		if v := newDDV[i]; v != n.commitBase[i] {
			pairs = append(pairs, DDVPair{Idx: i, SN: v})
		}
	}
	n.pairScratch = pairs
	owned := n.pairArena.Clone(pairs)
	sendToCluster(n, &n.ctl.commit, CLCCommit{Seq: seq, Epoch: n.epoch, Pairs: owned, Width: n.cfg.Clusters})
	n.applyCommit(seq, owned, n.inFlightForced)
}

// onCLCCommit finalizes the checkpoint on a participant.
func (n *Node) onCLCCommit(src topology.NodeID, m CLCCommit) {
	if !n.pairsFit(m.Pairs) {
		n.emit(Event{Kind: EventRefuseControl})
		return
	}
	if m.Epoch != n.epoch || n.phase != cpPrepared || m.Seq != n.prepSeq {
		return
	}
	pairs := m.Pairs
	if Mutate.DropCommitPair {
		if k := slices.IndexFunc(pairs, func(p DDVPair) bool { return p.Idx != int32(n.cluster) }); k >= 0 {
			pairs = slices.Delete(slices.Clone(pairs), k, k+1) // the commit's pairs are shared
		}
	}
	n.applyCommit(m.Seq, pairs, n.provisional.forced)
}

// applyCommit installs the committed checkpoint: adopt the SN and DDV,
// store the record, unfreeze application traffic and drain the queues.
// The committed vector arrives as the pairs that changed since the
// previous commit (leader included): the commitBase invariant
// reconstructs the dense vector in O(changed entries), and the stored
// record keeps only the pairs — owned and immutable, cut from a pair
// arena here or on the leader, or decoded fresh by the live runtime.
func (n *Node) applyCommit(seq SN, pairs []DDVPair, forced bool) {
	n.sn = seq
	n.anchorPending = false
	n.commitBase.applyPairs(pairs)
	if n.cfg.Mode == ModeIndependent {
		// Lazy tracking: receipts that arrived after this node's ack
		// are not in the commit; keep them. Entries the pairs omit
		// equal the previous base, which this node's DDV already
		// covers — merging just the pairs is exact.
		n.ddv.mergePairs(pairs)
		n.ddv[n.cluster] = seq
	} else {
		// n.ddv equals the previous base outside commit windows, so
		// patching the same pairs lands on the committed vector.
		n.ddv.applyPairs(pairs)
	}
	n.ddvChanged()
	if n.cfg.Mode == ModeIndependent {
		// Entries still above the new base stay dirty for the next ack.
		n.recvDirty.Refresh(func(i int) bool { return n.ddv[i] > n.commitBase[i] })
	}
	if n.cfg.Mode == ModeHC3I {
		// ddv now equals the vector of the record stored below (HC3I
		// holds the whole cluster at the committed vector between
		// commits): restart the incremental GC-report scan from this
		// clean anchor.
		n.gcScanDirty.Reset()
		n.gcScanValid = true
	}
	rec := n.provisional
	n.appendCLC(rec, seq, pairs)
	n.provisional = clcRecord{}
	n.phase = cpIdle
	n.frozenSends = false
	n.frozenDelivs = false
	n.emit(Event{Kind: EventCLCCommitted, Seq: seq, Epoch: n.epoch, DDV: n.commitBase, Pairs: pairs, Forced: forced})
	if n.stab != nil {
		// The committed record's snapshot is now on stable storage:
		// everything it covers is permanent unless a later rollback
		// restores an older checkpoint.
		n.stab.Stabilized(rec.state)
	}

	if n.leader() {
		n.inFlight = false
		// The 2PC window during which application traffic was frozen:
		// dominated by the state replication to stable storage.
		n.emit(Event{Kind: EventCLCFreeze, Value: n.env.Now().Sub(n.inFlightSince).Seconds()})
		// "the timer is reset when a forced CLC is established" (§5.2):
		// every commit re-arms the unforced-CLC delay.
		n.env.SetTimer(TimerCLC, n.cfg.CLCPeriod)
		n.recordStoredStat()
		// Drop the pending force list if this commit satisfied it; a
		// remaining excess starts the next forced CLC below.
		if !slices.ContainsFunc(n.pending, func(p DDVPair) bool { return p.SN > n.ddv[p.Idx] }) {
			n.pending = n.pending[:0]
		}
	}

	n.drainSendQueue()
	n.drainInbound()
	n.reexamineHeld()
	if n.leader() {
		n.emit(Event{Kind: EventStorageBytes, Value: float64(n.StorageBytes())})
		n.tryStartForced()
	}
	n.checkMemoryPressure()
}

// abortCheckpoint discards any in-progress 2PC state; invoked by the
// rollback path, which supersedes whatever the checkpoint was doing.
func (n *Node) abortCheckpoint() {
	if n.phase == cpPrepared || n.inFlight {
		n.emit(Event{Kind: EventCLCAbort})
	}
	n.phase = cpIdle
	n.provisional = clcRecord{}
	n.inFlight = false
	n.pending = n.pending[:0]
	n.pendingAlways = false
	n.acked = n.acked[:0]
	n.frozenSends = false
	n.frozenDelivs = false
}
