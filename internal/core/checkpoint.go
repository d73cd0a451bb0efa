package core

import (
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

// requestForce routes a forced-CLC demand to the cluster leader. In the
// dense encoding target is the full DDV the cluster must reach
// (element-wise max semantics); callers may pass the node's scratch
// buffer (buildForceTarget): sendForce copies it before anything
// escapes the current event.
func (n *Node) requestForce(target DDV) {
	n.sendForce(target, false)
}

// requestForceAlways demands an unconditional forced CLC (ModeForceAll).
func (n *Node) requestForceAlways(target DDV) {
	n.sendForce(target, true)
}

// requestForcePairs is the delta-wire counterpart of requestForce: the
// target is just the raised entries. pairs may be the node's
// pairScratch; sendForcePairs copies it before anything escapes.
func (n *Node) requestForcePairs(pairs []DDVPair) {
	n.sendForcePairs(pairs, false)
}

// requestForceAlwaysPairs is the delta-wire requestForceAlways.
func (n *Node) requestForceAlwaysPairs(pairs []DDVPair) {
	n.sendForcePairs(pairs, true)
}

// buildForceTarget resets the node's force-target scratch buffer to the
// current DDV and returns it. Ownership: the buffer belongs to the
// current event only — it is overwritten by the next buildForceTarget
// and must never be stored; sendForce clones it when the target leaves
// the node over the network.
func (n *Node) buildForceTarget() DDV {
	if n.forceScratch == nil {
		n.forceScratch = NewDDV(n.cfg.Clusters)
	}
	n.forceScratch.CopyFrom(n.ddv)
	return n.forceScratch
}

func (n *Node) sendForce(target DDV, always bool) {
	n.env.Stat("cic.force_requested", 1)
	if n.leader() {
		// absorbForce only merges target into pendingForce, so the
		// scratch buffer never escapes on the local path.
		n.absorbForce(target, always)
		return
	}
	// The message outlives this event (it sits in the network until
	// delivery): hand it an owned copy of the scratch target.
	sendCtl(n, &n.ctl.force, n.leaderOf(n.cluster),
		ForceCLC{Epoch: n.epoch, NewDDV: n.arena.Clone(target), Always: always})
}

func (n *Node) sendForcePairs(pairs []DDVPair, always bool) {
	n.env.Stat("cic.force_requested", 1)
	if n.leader() {
		n.absorbForcePairs(pairs, always)
		return
	}
	// Owned copy: the message outlives this event. Width prices the
	// demand at its dense footprint (see messages.go).
	sendCtl(n, &n.ctl.force, n.leaderOf(n.cluster), ForceCLC{Epoch: n.epoch,
		Pairs: n.pairArena.Clone(pairs), Width: n.cfg.Clusters, Always: always})
}

// onForceCLC handles a forced-CLC demand at the leader, in either
// encoding.
func (n *Node) onForceCLC(src topology.NodeID, m ForceCLC) {
	if !n.leader() || m.Epoch != n.epoch {
		return
	}
	if m.NewDDV != nil {
		n.absorbForce(m.NewDDV, m.Always)
		return
	}
	n.absorbForcePairs(m.Pairs, m.Always)
}

// ensurePendingForce opens the pending force set (all-zero, see
// clearPendingForce) if none is open.
func (n *Node) ensurePendingForce() {
	if n.pendingForce == nil {
		n.pendingForce = NewDDV(n.cfg.Clusters)
	}
	n.pendingActive = true
}

// clearPendingForce closes the pending force set, zeroing the entries
// it raised in O(dirty).
func (n *Node) clearPendingForce() {
	for _, i := range n.pendingDirty.Indices() {
		n.pendingForce[i] = 0
	}
	n.pendingDirty.Reset()
	n.pendingActive = false
}

// absorbForce merges a dense force target into the pending set and
// starts a forced CLC if none is in flight.
func (n *Node) absorbForce(target DDV, always bool) {
	n.ensurePendingForce()
	mergeMaxDirty(n.pendingForce, target, &n.pendingDirty)
	if always {
		n.pendingAlways = true
	}
	n.tryStartForced()
}

// absorbForcePairs merges a sparse force target. Entries the pairs omit
// sit at the demanding node's DDV values — merging them would never
// raise pendingForce above what the committed DDV already covers, so
// omitting them is exact.
func (n *Node) absorbForcePairs(pairs []DDVPair, always bool) {
	n.ensurePendingForce()
	n.pendingForce.mergePairs(pairs, &n.pendingDirty)
	if always {
		n.pendingAlways = true
	}
	n.tryStartForced()
}

// tryStartForced starts a forced CLC for any pending entries still
// above the committed DDV (or unconditionally, when one is owed). Only
// dirty indices are scanned: entries never raised are zero and cannot
// exceed the DDV.
func (n *Node) tryStartForced() {
	if n.inFlight || n.rbActive || n.lostState || n.phase != cpIdle || (!n.pendingActive && !n.pendingAlways) {
		return
	}
	pairs := n.pairScratch[:0]
	for _, i := range n.pendingDirty.Indices() {
		if v := n.pendingForce[i]; v > n.ddv[i] {
			pairs = append(pairs, DDVPair{Idx: i, SN: v})
		}
	}
	n.pairScratch = pairs
	if len(pairs) == 0 && !n.pendingAlways {
		n.clearPendingForce()
		return
	}
	n.pendingAlways = false
	n.startCLC(true, pairs)
}

// startCLC opens the two-phase commit for the next checkpoint. Runs on
// the leader only. updatePairs (raised entries; may alias pairScratch)
// is nil for unforced CLCs.
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
	n.env.Stat(n.keys.clcRequested, 1)

	req := CLCRequest{Seq: seq, Epoch: n.epoch, Forced: forced}
	if forced {
		if n.denseWire {
			update := n.arena.New()
			update.applyPairs(updatePairs)
			req.DDVUpdate = update
		} else {
			req.UpdatePairs = n.pairArena.Clone(updatePairs)
			req.UpdateWidth = n.cfg.Clusters
		}
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
// ModeIndependent the ack carries the node's local DDV so the commit
// can merge the dependencies accumulated since the last checkpoint —
// dense, or as just the entries this node raised above the last
// committed vector (recvDirty): the commit merge starts from a
// superset of that base, so the omitted entries are exact no-ops.
func (n *Node) sendPrepAck(seq SN) {
	var nodeDDV DDV
	var nodePairs []DDVPair
	if n.cfg.Mode == ModeIndependent {
		if n.denseWire {
			nodeDDV = n.arena.Clone(n.ddv)
		} else {
			pairs := n.pairScratch[:0]
			for _, i := range n.recvDirty.Indices() {
				if v := n.ddv[i]; v > n.commitBase[i] {
					pairs = append(pairs, DDVPair{Idx: i, SN: v})
				}
			}
			n.pairScratch = pairs
			nodePairs = n.pairArena.Clone(pairs)
		}
	}
	if n.leader() {
		n.ackFrom(n.id.Index, seq, nodeDDV, nodePairs)
		return
	}
	sendCtl(n, &n.ctl.ack, n.leaderOf(n.cluster),
		CLCAck{Seq: seq, Epoch: n.epoch, NodeDDV: nodeDDV, NodePairs: nodePairs})
}

// onCLCAck counts prepare acks at the leader.
func (n *Node) onCLCAck(src topology.NodeID, m CLCAck) {
	if !n.inFlight || m.Epoch != n.epoch || m.Seq != n.inFlightSeq {
		return
	}
	n.ackFrom(src.Index, m.Seq, m.NodeDDV, m.NodePairs)
}

func (n *Node) ackFrom(index int, seq SN, nodeDDV DDV, nodePairs []DDVPair) {
	if !n.ackedNodes[index] {
		n.ackedNodes[index] = true
		n.ackedCount++
	}
	if nodeDDV != nil {
		n.ackedDDVs = append(n.ackedDDVs, nodeDDV)
	}
	if len(nodePairs) > 0 {
		// Element-wise max is order-independent: accumulating on
		// arrival equals the dense path's merge-at-commit.
		if n.ackAccum == nil {
			n.ackAccum = NewDDV(n.cfg.Clusters)
		}
		n.ackAccum.mergePairs(nodePairs, &n.ackDirty)
	}
	if n.ackedCount < n.size {
		return
	}
	// Every node saved and replicated its state: commit.
	if n.denseWire {
		// The committed vector leaves in the broadcast: an owned copy.
		newDDV := n.arena.Clone(n.ddv)
		if n.inFlightForced && n.pendingActive {
			for i, v := range n.pendingForce {
				if topology.ClusterID(i) != n.cluster && v > newDDV[i] {
					newDDV[i] = v
				}
			}
		}
		for _, d := range n.ackedDDVs {
			newDDV.Merge(d)
		}
		n.ackedDDVs = nil
		newDDV[n.cluster] = seq
		sendToCluster(n, &n.ctl.commit, CLCCommit{Seq: seq, Epoch: n.epoch, DDV: newDDV})
		n.applyCommit(seq, newDDV, nil, n.inFlightForced)
		return
	}
	// Delta wire: raise the commit vector in this leader's scratch and
	// track every index that can differ from commitBase — the leader's
	// own lazy receipts (recvDirty), forced entries, ack-accumulated
	// entries and the new sequence number. The pair list is the exact
	// diff against the previous commit, which every node of the cluster,
	// this one included, patches into its own base; the vector itself
	// goes nowhere.
	if n.commitScratchVec == nil {
		n.commitScratchVec = NewDDV(n.cfg.Clusters)
	}
	newDDV := n.commitScratchVec
	newDDV.CopyFrom(n.ddv)
	dirty := &n.commitScratch
	dirty.Reset()
	for _, i := range n.recvDirty.Indices() {
		dirty.Add(int(i))
	}
	if n.inFlightForced && n.pendingActive {
		for _, i := range n.pendingDirty.Indices() {
			if v := n.pendingForce[i]; topology.ClusterID(i) != n.cluster && v > newDDV[i] {
				newDDV[i] = v
				dirty.Add(int(i))
			}
		}
	}
	for _, i := range n.ackDirty.Indices() {
		if v := n.ackAccum[i]; v > newDDV[i] {
			newDDV[i] = v
			dirty.Add(int(i))
		}
	}
	n.resetAckAccum()
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
	n.applyCommit(seq, nil, owned, n.inFlightForced)
}

// onCLCCommit finalizes the checkpoint on a participant, in either
// encoding.
func (n *Node) onCLCCommit(src topology.NodeID, m CLCCommit) {
	if m.Epoch != n.epoch || n.phase != cpPrepared || m.Seq != n.prepSeq {
		return
	}
	if m.DDV != nil {
		n.applyCommit(m.Seq, m.DDV, nil, n.provisional.forced)
		return
	}
	n.applyCommit(m.Seq, nil, m.Pairs, n.provisional.forced)
}

// applyCommit installs the committed checkpoint: adopt the SN and DDV,
// store the record, unfreeze application traffic and drain the queues.
// The committed vector arrives dense (commitVec, the dense wire) or as
// the pairs that changed since the previous commit (pairs, the delta
// wire, leader included) — the commitBase invariant reconstructs the
// dense vector in O(changed entries). Either way the stored record
// keeps only the pairs: no vector is copied for it.
func (n *Node) applyCommit(seq SN, commitVec DDV, pairs []DDVPair, forced bool) {
	n.sn = seq
	n.anchorPending = false
	// chainPairs is what the stored chain appends: owned and immutable —
	// cut from a pair arena here or on the leader, or decoded fresh by
	// the live runtime.
	chainPairs := pairs
	if commitVec == nil {
		// Delta wire: patch the base into the committed vector.
		n.commitBase.applyPairs(pairs)
		commitVec = n.commitBase
		if n.cfg.Mode == ModeIndependent {
			// Lazy tracking: receipts that arrived after this node's
			// ack are not in the commit; keep them. Entries the pairs
			// omit equal the previous base, which this node's DDV
			// already covers — merging just the pairs is exact.
			n.ddv.mergePairs(pairs, nil)
			n.ddv[n.cluster] = seq
		} else {
			// n.ddv equals the previous base outside commit windows, so
			// patching the same pairs lands on the committed vector.
			n.ddv.applyPairs(pairs)
		}
	} else {
		// Dense reference wire: the record's pairs are the diff against
		// the previous commit.
		n.pairScratch = diffPairs(n.pairScratch[:0], commitVec, n.commitBase)
		chainPairs = n.pairArena.Clone(n.pairScratch)
		if n.cfg.Mode == ModeIndependent {
			// Merging in place yields the same element-wise maximum the
			// seed computed into a fresh clone.
			n.ddv.Merge(commitVec)
			n.ddv[n.cluster] = seq
		} else {
			// n.ddv is this node's owned buffer (nothing aliases it:
			// every escape point clones), so the commit DDV is copied
			// in place.
			n.ddv.CopyFrom(commitVec)
		}
		n.commitBase.CopyFrom(commitVec)
	}
	n.ddvChanged()
	if !n.denseWire && n.cfg.Mode == ModeIndependent {
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
	n.appendCLC(rec, seq, chainPairs)
	n.provisional = clcRecord{}
	n.phase = cpIdle
	n.frozenSends = false
	n.frozenDelivs = false
	n.emit(Event{Kind: EventCLCCommitted, Seq: seq, Epoch: n.epoch, DDV: commitVec, Pairs: pairs, Forced: forced})
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
		n.env.StatSeries(n.keys.clcFreeze,
			n.env.Now().Sub(n.inFlightSince).Seconds())
		n.env.Stat(n.keys.clcCommitted, 1)
		if forced {
			n.env.Stat(n.keys.clcForced, 1)
		} else {
			n.env.Stat(n.keys.clcUnforced, 1)
		}
		// "the timer is reset when a forced CLC is established" (§5.2):
		// every commit re-arms the unforced-CLC delay.
		n.env.SetTimer(TimerCLC, n.cfg.CLCPeriod)
		n.recordStoredStat()
		// Drop the pending force set if this commit satisfied it; a
		// remaining excess starts the next forced CLC below. Only dirty
		// indices can hold non-zero entries.
		if n.pendingActive {
			still := false
			for _, i := range n.pendingDirty.Indices() {
				if n.pendingForce[i] > n.ddv[i] {
					still = true
					break
				}
			}
			if !still {
				n.clearPendingForce()
			}
		}
	}

	n.drainSendQueue()
	n.drainInbound()
	n.reexamineHeld()
	if n.leader() {
		n.env.StatSeries(n.keys.storageBytes, float64(n.StorageBytes()))
		n.tryStartForced()
	}
	n.checkMemoryPressure()
}

// abortCheckpoint discards any in-progress 2PC state; invoked by the
// rollback path, which supersedes whatever the checkpoint was doing.
func (n *Node) abortCheckpoint() {
	if n.phase == cpPrepared || n.inFlight {
		n.env.Stat(n.keys.clcAborted, 1)
	}
	n.phase = cpIdle
	n.provisional = clcRecord{}
	n.inFlight = false
	n.clearPendingForce()
	n.pendingAlways = false
	n.ackedDDVs = nil
	n.resetAckAccum()
	n.frozenSends = false
	n.frozenDelivs = false
}
