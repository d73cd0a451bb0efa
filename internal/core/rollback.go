package core

import (
	"fmt"

	"repro/internal/topology"
)

// This file implements failure handling (§3.4): the failed node's
// cluster rolls back to its last committed CLC, alerts every other
// cluster, and alerts cascade — each receiving cluster rolls back to
// the oldest checkpoint whose DDV entry for the alerting cluster is >=
// the alerted SN — until the recovery line is reached. Clusters that do
// not roll back resend the logged messages the restored clusters lost.

// recoverPending tracks a restarted node waiting for its replica.
type recoverPending struct {
	cmd         RollbackCmd
	coordinator topology.NodeID
}

// cascadeRecord remembers one acted-on rollback alert (see
// Node.cascadeMemo).
type cascadeRecord struct {
	alertSN  SN
	targetSN SN
}

// startClusterRollback begins a rollback of this node's cluster to its
// last committed CLC, with this node as coordinator (it is the node the
// failure detector notified). A detection arriving while a rollback is
// already in flight — a *second* simultaneous fault in this cluster —
// restarts the rollback under a fresh epoch so the newly restarted node
// receives its command too; with replication degree >= 2 its state is
// still recoverable (§7's configurable-replication extension).
func (n *Node) startClusterRollback() {
	if n.rbActive {
		n.emit(Event{Kind: EventRollbackRestart})
	}
	n.initiateRollback(n.chain.Recs[n.chain.Len()-1].SN)
}

// initiateRollback coordinates a rollback of the whole cluster to the
// stored checkpoint with sequence number toSN.
func (n *Node) initiateRollback(toSN SN) {
	newEpoch := n.epoch + 1
	n.rbActive = true
	n.rbSeq = toSN
	n.rbEpoch = newEpoch
	n.rbSince = n.env.Now()
	n.rbAcks = make(map[int]bool, n.size)
	n.alertsSeen++
	n.emit(Event{Kind: EventRollback, Seq: toSN, Epoch: newEpoch})

	cmd := RollbackCmd{ToSN: toSN, NewEpoch: newEpoch}
	sendToCluster(n, nil, cmd)
	// "One node in each other cluster in the federation receives a
	// rollback alert. It contains the faulty cluster's SN that
	// corresponds to the CLC to which it rolls back."
	alert := RollbackAlert{Cluster: n.cluster, NewSN: toSN, NewEpoch: newEpoch}
	for c := topology.ClusterID(0); int(c) < n.cfg.Clusters; c++ {
		if c == n.cluster {
			continue
		}
		n.emit(Event{Kind: EventAlertSent})
		n.env.Send(n.leaderOf(c), controlSize(alert), alert)
	}

	if n.performLocalRollback(toSN, newEpoch, n.id) {
		n.rbAcks[n.id.Index] = true
		n.checkRollbackDone()
	}
}

// performLocalRollback restores this node to the stored checkpoint with
// sequence number toSN and moves to newEpoch. Application sends stay
// frozen until the coordinator's RollbackResume barrier. It reports
// whether the restore completed synchronously; when the checkpoint's
// local state is remote (lost in an earlier crash) it returns false and
// onRecoverStateResp finishes the job, acking coordinator.
func (n *Node) performLocalRollback(toSN SN, newEpoch Epoch, coordinator topology.NodeID) bool {
	n.abortCheckpoint()
	// Sends of the aborted execution are re-executed; in-flight senders
	// will resend what was held (they are logged).
	clear(n.sendQueue)
	n.sendQueue = n.sendQueue[:0]
	clear(n.heldInter)
	n.heldInter = n.heldInter[:0]
	// Deferred messages addressed to the post-rollback epoch survive;
	// everything else belongs to the aborted execution.
	kept := n.inboundQueue[:0]
	for _, in := range n.inboundQueue {
		if in.msg.DstEpoch >= newEpoch {
			kept = append(kept, in)
		}
	}
	clear(n.inboundQueue[len(kept):])
	n.inboundQueue = kept

	// Discard checkpoints from the aborted future, and the mirrored
	// sends that belong to it (first: the records they name go next).
	n.dropMirrorsFrom(toSN)
	n.truncateCLCsAfter(toSN)
	n.dropReplicasAbove(toSN)

	idx := n.chain.Index(toSN)
	if idx < 0 {
		panic(fmt.Sprintf("core: %v has no checkpoint %d to restore", n.id, toSN))
	}
	if n.clcs.At(idx).remote {
		// Our local copy was lost in an earlier crash; fetch it back
		// from the replica holders before acking (async). All holders
		// are asked — one of them may be down itself under multiple
		// simultaneous faults; the first response wins.
		n.recoverWait = &recoverPending{
			cmd:         RollbackCmd{ToSN: toSN, NewEpoch: newEpoch},
			coordinator: coordinator,
		}
		req := RecoverStateReq{Seq: toSN, Epoch: newEpoch, Owner: n.id}
		for _, h := range n.replicaTargets() {
			n.env.Send(h, controlSize(req), req)
		}
		return false
	}
	n.finishLocalRollback(idx, toSN, newEpoch)
	return true
}

func (n *Node) finishLocalRollback(idx int, toSN SN, newEpoch Epoch) {
	rec := n.clcs.At(idx)
	n.app.Restore(rec.state)
	for _, late := range rec.lateLog {
		n.emit(Event{Kind: EventRedeliverLate})
		n.app.Deliver(late.src, late.msg.Payload)
	}
	n.restoreVector(idx, toSN)
	n.epoch = newEpoch
	n.epochs.setKnown(n.cluster, newEpoch)
	n.pruneLogForOwnRollback(toSN)
	n.anchorPending = true
	n.frozenSends = true // until RollbackResume
	n.frozenDelivs = false
	n.emit(Event{Kind: EventRestore, Seq: toSN, Epoch: newEpoch, DDV: n.ddv})
	n.drainInbound()
}

// restoreVector adopts stored record idx (sequence number sn) as the
// node's SN and DDV — the stored vector is materialised by walking the
// chain into the node's own buffer — and re-anchors the delta-tracking
// state on it: the commit base becomes that vector (the
// commit chain restarts from it on both leader and participants — they
// restore the same checkpoint), lazy receipts are gone (the restored
// DDV covers exactly the checkpoint), and the per-pipe piggyback
// cursors are zeroed because the DDV may have decreased — the next
// message on each pipe re-examines the full width, exactly as the dense
// encoding would compare it.
func (n *Node) restoreVector(idx int, sn SN) {
	n.sn = sn
	n.chain.Vector(idx, n.ddv)
	n.commitBase.CopyFrom(n.ddv)
	n.recvDirty.Reset()
	n.gcScanValid = false
	n.acked = n.acked[:0]
	n.ddvChanged()
	n.resetPiggyExam()
}

// onRollbackCmd executes the coordinator's rollback order on a peer.
func (n *Node) onRollbackCmd(src topology.NodeID, m RollbackCmd) {
	if src.Cluster != n.cluster {
		return
	}
	if n.lostState {
		// Restarted after a crash: volatile memory (including the
		// local checkpoint parts) is gone; fetch the state back from
		// the stable-storage neighbours (§3.1). Every holder is asked
		// in case some are down too; the first response wins.
		n.recoverWait = &recoverPending{cmd: m, coordinator: src}
		req := RecoverStateReq{Seq: m.ToSN, Epoch: m.NewEpoch, Owner: n.id}
		for _, h := range n.replicaTargets() {
			n.env.Send(h, controlSize(req), req)
		}
		return
	}
	if m.NewEpoch <= n.epoch {
		return // stale duplicate
	}
	if n.chain.Index(m.ToSN) < 0 {
		// A command naming a checkpoint this node does not hold cannot
		// be obeyed: refuse it before anything changes.
		n.emit(Event{Kind: EventRefuseRollback})
		return
	}
	if n.rbActive && m.NewEpoch > n.rbEpoch {
		// A newer rollback supersedes the one we were coordinating.
		n.rbActive = false
	}
	if n.performLocalRollback(m.ToSN, m.NewEpoch, src) {
		ack := RollbackAck{ToSN: m.ToSN, Epoch: m.NewEpoch, From: n.id}
		n.env.Send(src, controlSize(ack), ack)
	}
}

// onRecoverStateReq serves a stored replica back to its owner.
func (n *Node) onRecoverStateReq(src topology.NodeID, m RecoverStateReq) {
	reps := n.replicasOf(m.Owner)
	at, ok := searchReplica(reps, m.Seq)
	if !ok {
		// The owner queries every holder; this one cannot serve (e.g.
		// it restarted recently itself). Another holder usually can —
		// a truly unrecoverable state shows up as a stalled rollback,
		// which the harness invariants catch.
		n.emit(Event{Kind: EventReplicaMiss, Seq: m.Seq, Peer: m.Owner})
		return
	}
	rep := reps.At(at)
	// The cluster's checkpoint metadata is this node's own chain, up to
	// the requested record; the older states are the owner's replicas at
	// those records — a merge walk, both lists being SN-ordered.
	keep, j := 0, 0
	var older []OlderState
	for _, r := range n.chain.Recs {
		if r.SN > m.Seq {
			break
		}
		keep++
		if r.SN == m.Seq {
			continue
		}
		for j < reps.Len() && reps.At(j).Seq < r.SN {
			j++
		}
		if j < reps.Len() && reps.At(j).Seq == r.SN {
			o := reps.At(j)
			older = append(older, OlderState{SN: r.SN, State: o.State, Size: o.Size})
		}
	}
	resp := RecoverStateResp{
		Seq: m.Seq, Epoch: m.Epoch, Owner: m.Owner,
		State: rep.State, Size: rep.Size, Chain: Chain{Anchor: n.chain.Anchor, Recs: append([]ChainRec(nil), n.chain.Recs[:keep]...)}, Older: older,
	}
	if ml := n.mirrorLogs[m.Owner]; ml != nil {
		resp.Log = ml.entries.AppendTo(nil)
	}
	n.env.Send(src, controlSize(resp), resp)
}

// recoveryFits reports whether a recovery response fits this
// federation: the chain's anchor of its width, every record's pairs
// inside it (pairsFit), and every mirrored send's piggyback empty or
// of its width, as onLogMirror demands.
func (n *Node) recoveryFits(m RecoverStateResp) bool {
	if m.Chain.Anchor.Width != n.cfg.Clusters {
		return false
	}
	for _, r := range m.Chain.Recs {
		if !n.pairsFit(r.Pairs) {
			return false
		}
	}
	for _, l := range m.Log {
		if w := l.Piggy.Width; w != 0 && w != n.cfg.Clusters {
			return false
		}
	}
	return true
}

// onRecoverStateResp completes a restarted node's recovery: adopt the
// holder's chain as the checkpoint list (local states stay remote on
// the neighbour), restore the fetched state and ack the rollback.
func (n *Node) onRecoverStateResp(src topology.NodeID, m RecoverStateResp) {
	if n.recoverWait == nil || m.Seq != n.recoverWait.cmd.ToSN {
		return
	}
	if m.Chain.Index(m.Seq) < 0 || !n.recoveryFits(m) {
		// A chain without the target, or state of another federation's
		// width, cannot be restored: refuse it before anything changes,
		// and wait for another holder.
		n.emit(Event{Kind: EventRefuseRollback})
		return
	}
	pend := *n.recoverWait
	n.recoverWait = nil
	n.lostState = false

	olderBySN := make(map[SN]OlderState, len(m.Older))
	for _, o := range m.Older {
		olderBySN[o.SN] = o
	}
	// The chain is about to be replaced by the holder's. The log goes
	// (re-adopted below). Mirrors that arrived while this node waited for
	// the restore are judged as a rollback judges them (see onLogMirror).
	n.resetLog()
	n.dropMirrorsFrom(pend.cmd.ToSN)
	n.resetCLCs()
	n.chain.copyFrom(m.Chain)
	n.chain.TruncateAfter(pend.cmd.ToSN)
	for _, r := range n.chain.Recs {
		sn := r.SN
		rec := clcRecord{at: n.env.Now(), remote: true}
		switch {
		case sn == pend.cmd.ToSN:
			rec.state = m.State
			rec.stateSize = m.Size
			rec.remote = false
		default:
			if o, ok := olderBySN[sn]; ok {
				rec.state = o.State
				rec.stateSize = o.Size
				rec.remote = false
			}
		}
		n.clcs.Append(rec)
		n.clcBytes += rec.storedBytes()
	}
	idx := n.chain.Index(pend.cmd.ToSN)
	if idx < 0 {
		panic(fmt.Sprintf("core: %v recovered a chain without checkpoint %d", n.id, pend.cmd.ToSN))
	}
	n.app.Restore(m.State)
	n.restoreVector(idx, pend.cmd.ToSN)
	n.epoch = pend.cmd.NewEpoch
	n.epochs.setKnown(n.cluster, n.epoch)
	n.anchorPending = true
	n.frozenSends = true
	n.frozenDelivs = false
	n.emit(Event{Kind: EventRecoverState})
	n.emit(Event{Kind: EventRestore, Seq: pend.cmd.ToSN, Epoch: pend.cmd.NewEpoch, DDV: n.ddv})

	// Re-adopt the mirrored message log: entries whose send belongs to
	// the restored state, conservatively unacknowledged — the resume
	// barrier re-pushes them and receivers deduplicate. Re-adoption
	// appends like doSend does, so a crash never deflates LogPeak.
	for _, e := range m.Log {
		if e.PiggySN >= pend.cmd.ToSN {
			continue
		}
		le := n.logSlab.New()
		*le = logEntry{
			msgID: e.MsgID, dst: e.Dst, dstCluster: e.Dst.Cluster,
			payload: e.Payload, piggySN: e.PiggySN, piggy: e.Piggy,
		}
		n.appendLog(le)
		n.emit(Event{Kind: EventRecoverLogEntry})
	}

	// The crash lost the replicas this node held for its neighbours;
	// ask their owners to push them again so the next fault is covered.
	for r := 1; r <= n.cfg.Replicas; r++ {
		owner := topology.NodeID{Cluster: n.cluster, Index: (n.id.Index - r + n.size) % n.size}
		req := ReReplicateReq{Epoch: n.epoch}
		n.env.Send(owner, controlSize(req), req)
	}

	if pend.coordinator == n.id {
		// We were restoring a remote state during a self-coordinated
		// rollback step.
		n.rbAcks[n.id.Index] = true
		n.checkRollbackDone()
		return
	}
	ack := RollbackAck{ToSN: pend.cmd.ToSN, Epoch: pend.cmd.NewEpoch, From: n.id}
	n.env.Send(pend.coordinator, controlSize(ack), ack)
}

// onReReplicateReq pushes this node's stored checkpoint parts (and its
// message-log mirror) back to a restarted replica holder.
func (n *Node) onReReplicateReq(src topology.NodeID, m ReReplicateReq) {
	if m.Epoch != n.epoch || src.Cluster != n.cluster {
		return
	}
	for i := 0; i < n.clcs.Len(); i++ {
		rec := n.clcs.At(i)
		if rec.remote {
			continue // our own copy lives remotely; nothing to push
		}
		sendCtl(n, &n.ctl.rep, src, Replica{Seq: n.chain.Recs[i].SN, Epoch: n.epoch, Owner: n.id, State: rec.state, Size: rec.stateSize})
		n.emit(Event{Kind: EventRereplicate})
	}
	for _, e := range n.log {
		n.sendMirror(src, LogMirror{
			Owner: n.id, MsgID: e.msgID, Dst: e.dst, Payload: e.payload,
			PiggySN: e.piggySN, Piggy: e.piggy, Epoch: n.epoch,
		})
	}
}

// onLogMirror stores a neighbour's message-log entry.
//
// A mirror whose Epoch is older than the holder's was sent before a
// rollback (or crash recovery) the holder has already performed, and
// is judged as that rollback judged the mirrors it held: kept only if
// its send is part of the restored state. The owner's mirrors and
// replicas share one FIFO link, and the holder commits nothing in a
// newer epoch without the owner's next replica, so the holder's chain
// still ends at the restored record: PiggySN below it is that test.
//
// A restarted holder that has not recovered yet has no chain to judge
// by, and refuses every mirror: those of the owner's aborted execution
// must go, and the owner re-pushes the rest once the holder has
// recovered (onReReplicateReq). A mirror whose piggyback is neither
// empty nor the federation's width is refused too.
func (n *Node) onLogMirror(src topology.NodeID, m LogMirror) {
	if src.Cluster != n.cluster || n.lostState {
		return
	}
	if w := m.Piggy.Width; w != 0 && w != n.cfg.Clusters {
		// A peer's vector of another federation's width: a resend
		// could never write it out.
		n.emit(Event{Kind: EventMirrorRefuseWidth})
		return
	}
	if m.Epoch < n.epoch && (n.chain.Len() == 0 || m.PiggySN >= n.chain.Recs[n.chain.Len()-1].SN) {
		return // part of the aborted execution
	}
	ml := n.mirrorLogs[m.Owner]
	if ml == nil {
		ml = &mirrorLog{ids: make(map[uint64]struct{})}
		n.mirrorLogs[m.Owner] = ml
	}
	if _, dup := ml.ids[m.MsgID]; dup {
		return // re-replication
	}
	ml.ids[m.MsgID] = struct{}{}
	ml.entries.Append(m)
	n.mirrorBytes += uint64(m.Payload.Size)
}

// dropMirrorsFrom discards the mirrored sends with PiggySN >= sn: those
// of the execution a rollback to stored record sn aborts.
func (n *Node) dropMirrorsFrom(sn SN) {
	for _, ml := range n.mirrorLogs {
		n.mirrorBytes -= ml.filter(func(e *LogMirror) bool { return e.PiggySN < sn })
	}
}

// onLogTrim intersects a neighbour's mirrored log with its live set.
func (n *Node) onLogTrim(src topology.NodeID, m LogTrim) {
	if src.Cluster != n.cluster {
		return
	}
	ml := n.mirrorLogs[src]
	if ml == nil {
		return
	}
	if n.trimKeep == nil {
		n.trimKeep = make(map[uint64]struct{}, len(m.Kept))
	}
	for _, id := range m.Kept {
		n.trimKeep[id] = struct{}{}
	}
	n.mirrorBytes -= ml.filter(func(e *LogMirror) bool {
		_, alive := n.trimKeep[e.MsgID]
		return alive
	})
	clear(n.trimKeep)
}

// onRollbackAck gathers restoration confirmations at the coordinator.
func (n *Node) onRollbackAck(src topology.NodeID, m RollbackAck) {
	if !n.rbActive || m.Epoch != n.rbEpoch {
		return
	}
	n.rbAcks[src.Index] = true
	n.checkRollbackDone()
}

func (n *Node) checkRollbackDone() {
	if !n.rbActive || len(n.rbAcks) < n.size {
		return
	}
	n.rbActive = false
	// Recovery time: detection-to-resume for the whole cluster,
	// dominated by state restores (and replica fetches after a crash).
	n.emit(Event{Kind: EventRollbackDone, Seq: n.rbSeq, Epoch: n.rbEpoch,
		Value: n.env.Now().Sub(n.rbSince).Seconds()})
	res := RollbackResume{Epoch: n.rbEpoch}
	sendToCluster(n, nil, res)
	n.resumeAfterRollback()
	// Alerts that arrived while restoring are decided now.
	pending := n.deferredAlert
	n.deferredAlert = nil
	for _, a := range pending {
		n.decideRollbackFromAlert(a)
	}
}

// onRollbackResume releases the send freeze on a peer.
func (n *Node) onRollbackResume(src topology.NodeID, m RollbackResume) {
	if m.Epoch != n.epoch {
		return
	}
	n.resumeAfterRollback()
	// Alerts that arrived while this node was recovering its lost
	// state were deferred (onRollbackAlert); decide them now that the
	// cluster's rollback completed. Without this, an alert reaching a
	// leader mid-recovery was deferred forever — the cluster never
	// cascaded, leaving orphan deliveries in place (found by the
	// invariant oracle under chaos schedules; the coordinator path
	// has always drained its own deferred alerts in checkRollbackDone).
	pending := n.deferredAlert
	n.deferredAlert = nil
	for _, a := range pending {
		n.decideRollbackFromAlert(a)
	}
}

func (n *Node) resumeAfterRollback() {
	n.frozenSends = false
	n.drainSendQueue()
	n.drainInbound()
	// Held inter-cluster messages re-demand their forced CLC now: a
	// force request issued while the leader was mid-recovery was
	// dropped, and without this retry a cluster with an infinite
	// unforced-CLC timer would hold such messages forever.
	n.reexamineHeld()
	// Re-issue every surviving log entry that is not (or no longer)
	// acknowledged. This closes a race the paper does not discuss: a
	// resend triggered by another cluster's alert can be emitted just
	// before our own cascaded rollback and then be discarded by the
	// receiver as stale-epoch traffic; the entry survives our rollback
	// (its send is part of the restored state), so pushing it again
	// under the new epoch guarantees delivery. Duplicates are
	// acceptable — receivers deduplicate by logical message identity.
	for _, e := range n.log {
		if e.acked {
			continue
		}
		// Target the receiver cluster's newest known epoch: if its own
		// rollback command is still in flight (it can queue behind bulk
		// state transfers), the receiver defers this copy instead of
		// consuming it in the doomed state.
		m := n.resendMsg(e, n.epochs.known(e.dstCluster))
		n.emit(Event{Kind: EventResendRecovered})
		n.sendAppMsg(e.dst, m)
	}
	if n.leader() {
		n.env.SetTimer(TimerCLC, n.cfg.CLCPeriod)
		n.recordStoredStat()
	}
}

// onRollbackAlert handles the §3.4 alert, both the inter-cluster
// original (at the leader) and its intra-cluster re-broadcast (at every
// node): update the known epoch, resend qualifying logged messages and
// — at the leader — decide whether this cluster must roll back too.
func (n *Node) onRollbackAlert(src topology.NodeID, m RollbackAlert) {
	if m.Cluster < 0 || int(m.Cluster) >= n.cfg.Clusters {
		n.emit(Event{Kind: EventRefuseControl})
		return
	}
	if m.Cluster == n.cluster {
		return // echo of our own alert; impossible in practice
	}
	n.epochs.raiseKnown(m.Cluster, m.NewEpoch)
	n.epochs.raiseAlert(m.Cluster, m.NewEpoch, m.NewSN)
	n.alertsSeen++
	// "Even if its cluster does not need to rollback, a node receiving
	// a rollback alert broadcasts it in its cluster. Logged messages
	// sent to nodes in the faulty cluster ... will then be resent."
	n.resendLoggedTo(m.Cluster, m.NewSN, m.NewEpoch)
	external := src.Cluster != n.cluster
	if external {
		sendToCluster(n, nil, m)
		if n.lostState || n.rbActive {
			n.deferredAlert = append(n.deferredAlert, m)
			return
		}
		n.decideRollbackFromAlert(m)
	}
}

// decideRollbackFromAlert applies the rollback test of §3.4 at the
// leader: roll back iff the DDV entry for the alerting cluster is >=
// the alerted SN, to the oldest checkpoint whose entry is >= that SN.
func (n *Node) decideRollbackFromAlert(m RollbackAlert) {
	if !NeedsRollback(n.ddv, m.Cluster, m.NewSN) {
		return
	}
	var idx int
	if n.cfg.Mode == ModeIndependent {
		// No forced checkpoints exist: fall back behind the dependency
		// (domino effect; the initial CLC always qualifies).
		idx = n.chain.NewestBelow(m.Cluster, m.NewSN)
		if idx < 0 {
			idx = 0
		}
	} else {
		idx = n.chain.OldestWith(m.Cluster, m.NewSN)
		if idx == -1 {
			// The garbage collector's safety rule makes this unreachable;
			// fall back to the initial checkpoint, which depends on nothing.
			n.emit(Event{Kind: EventNoRollbackTarget, Cluster: m.Cluster, Seq: m.NewSN})
			idx = 0
		}
	}
	target := n.chain.Recs[idx].SN
	// Live counterpart of SimulateFailure's "only roll back further"
	// rule: the restored forced CLC's recorded DDV still names the
	// dependency that triggered the rollback (its *state* does not —
	// the dangerous delivery happened after its commit), so the §3.4
	// test keeps firing on repeats of the same alert. If we already
	// rolled back to this very checkpoint for this alert SN and have
	// not committed since, there is nothing left to undo; acting again
	// would bump our epoch, re-alert every cluster and feed a mutual
	// cascade that never terminates. The "not committed since" leg is
	// what makes this sound: any post-restore delivery forces the
	// anchor CLC first (see Node.anchorPending), so a *new* sender
	// rollback to the same SN — whose discarded sends this cluster may
	// have consumed — finds n.sn above the target and re-rolls instead
	// of being mistaken for a duplicate alert.
	if memo, ok := n.cascadeMemo[m.Cluster]; ok &&
		memo.alertSN == m.NewSN && memo.targetSN == target && n.sn == target {
		n.emit(Event{Kind: EventCascadeSuppressed})
		return
	}
	n.cascadeMemo[m.Cluster] = cascadeRecord{alertSN: m.NewSN, targetSN: target}
	n.emit(Event{Kind: EventCascade})
	n.initiateRollback(target)
}
