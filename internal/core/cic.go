package core

import (
	"cmp"
	"slices"

	"repro/internal/topology"
)

// This file implements the application-message path: interception of
// every inter-process message (system model, §2.1), the
// communication-induced checkpointing rules between clusters (§3.2) and
// the optimistic sender-side message log (§3.3).

// Send is the application-facing entry point: transmit payload to dst.
// Sends issued while the node is frozen by a 2PC (or by an in-progress
// rollback) are queued and released at commit/resume, which is exactly
// the paper's "application messages are queued to prevent intra-cluster
// dependencies".
func (n *Node) Send(dst topology.NodeID, p AppPayload) {
	if n.failed {
		return
	}
	if dst == n.id {
		panic("core: node sending to itself")
	}
	if n.frozenSends || n.lostState {
		n.sendQueue = append(n.sendQueue, AppPayloadTo{Dst: dst, Payload: p})
		n.emit(Event{Kind: EventSendFrozen})
		return
	}
	n.doSend(dst, p)
}

func (n *Node) doSend(dst topology.NodeID, p AppPayload) {
	n.nextMsgID++
	m := AppMsg{
		MsgID:      n.nextMsgID,
		Payload:    p,
		SrcCluster: n.cluster,
		SrcEpoch:   n.epoch,
		SendSN:     n.sn,
	}
	if dst.Cluster != n.cluster {
		// Target the receiver cluster's newest known epoch, like
		// resends do: if the receiver's own rollback command is still
		// in flight, a plain send could be delivered (and acked) into
		// the doomed state and then erased by the restore, with no
		// later alert to trigger a resend. The receiver defers such
		// messages until its epoch catches up.
		m.DstEpoch = n.epochs.known(dst.Cluster)
		// Inter-cluster: piggyback the dependency information and log
		// the message optimistically in volatile memory (§3.3),
		// mirroring the entry to the stable-storage neighbour so a
		// crash of *this* node does not lose it. The entry and the
		// mirror share the generation's sparse vector (see piggy).
		var piggy SparseDDV
		if n.cfg.Transitive {
			piggy = n.piggy()
			if cd := n.pipeCodecTo(dst.Cluster); cd != nil {
				// Delta wire: the message carries only the entries that
				// changed since the last message on this pipe (O(1)
				// while the DDV generation is unchanged).
				m.PiggyPairs = cd.Encode(n.ddv, n.piggyVecID(), &n.pairArena, &n.vecScratch)
				m.PiggyWidth = int32(n.cfg.Clusters)
				n.emit(Event{Kind: EventPiggySend, Cluster: dst.Cluster, Pairs: piggy.Pairs})
			} else {
				// No pipe codec: the message carries the whole vector,
				// the very one the log entry holds.
				m.Piggy = piggy
			}
		}
		e := n.logSlab.New()
		*e = logEntry{
			msgID:      m.MsgID,
			dst:        dst,
			dstCluster: dst.Cluster,
			payload:    p,
			piggySN:    n.sn,
			piggy:      piggy,
		}
		n.appendLog(e)
		n.emit(Event{Kind: EventLogAppended})
		if n.cfg.Replicas > 0 {
			n.sendMirror(n.holderFor(), LogMirror{
				Owner: n.id, MsgID: m.MsgID, Dst: dst, Payload: p,
				PiggySN: n.sn, Piggy: piggy, Epoch: n.epoch,
			})
		}
	}
	n.sendAppMsg(dst, m)
}

// sendAppMsg transmits an application wrapper, through a recycled box
// when the harness offers one (see BoxPool).
func (n *Node) sendAppMsg(dst topology.NodeID, m AppMsg) {
	if n.boxes != nil {
		b := n.boxes.AppMsgBox()
		*b = m
		n.env.SendApp(dst, m.WireSize(), b)
		return
	}
	n.env.SendApp(dst, m.WireSize(), m)
}

func (n *Node) drainSendQueue() {
	q := n.sendQueue
	n.sendQueue = nil
	for _, s := range q {
		n.doSend(s.Dst, s.Payload)
	}
	if n.sendQueue == nil {
		// Nothing queued meanwhile: keep the backing array.
		clear(q)
		n.sendQueue = q[:0]
	}
}

// MutationFlags deliberately break one protocol rule each, so the
// mutation catalogue can prove the project's checks detect real
// protocol damage (a checker that never fires proves nothing). Test
// instrumentation only — never set outside tests, and always reset
// afterwards.
var Mutate MutationFlags

// MutationFlags is the set of seedable protocol breaks.
type MutationFlags struct {
	// AcceptStaleEpoch disables the inter-cluster stale-epoch guard:
	// messages from an aborted (rolled-back) execution are delivered
	// instead of dropped, creating orphan deliveries no cascade will
	// ever erase — the exact damage the §3.4 epoch discipline prevents.
	AcceptStaleEpoch bool
	// GCOverCollect makes the garbage collector distribute thresholds
	// one past the safe minimum, discarding the oldest checkpoint a
	// future recovery could still need — violating the §3.5 safety
	// rule.
	GCOverCollect bool
	// DropCommitPair: a member applies a CLCCommit with one pair
	// missing, other than its own cluster's entry.
	DropCommitPair bool
	// DropAckPair: a ModeIndependent prepare ack leaves out one raised
	// pair.
	DropAckPair bool
	// DropForcePair: a member's forced-CLC demand leaves out one raised
	// pair.
	DropForcePair bool
}

// onAppMsg applies the receive-side guards, then routes the message to
// the intra- or inter-cluster delivery path.
func (n *Node) onAppMsg(src topology.NodeID, m AppMsg) {
	if src.Cluster == n.cluster {
		// Intra-cluster: drop traffic from an aborted execution.
		if m.SrcEpoch != n.epoch || n.lostState {
			n.emit(Event{Kind: EventDropStale})
			return
		}
	} else {
		if !n.piggyFits(m) {
			// A peer's vector of another federation's width: merging it
			// would index past this node's DDV.
			n.emit(Event{Kind: EventRefuseWidth})
			return
		}
		// Inter-cluster: epochs of other clusters are learned lazily.
		known := n.epochs.known(src.Cluster)
		if m.SrcEpoch < known {
			// One epoch behind, sent before the rollback point the
			// alert announced: the send is part of the sender's
			// restored state and the content is still valid (it may be
			// the only surviving copy of a resend that raced our own
			// rollback). Anything else is aborted-execution traffic.
			if !n.priorEpochValid(src, m) && !Mutate.AcceptStaleEpoch {
				n.emit(Event{Kind: EventDropStale})
				return
			}
			n.emit(Event{Kind: EventAcceptPriorEpoch})
		}
		if m.SrcEpoch > known {
			n.epochs.setKnown(src.Cluster, m.SrcEpoch)
		}
		if m.DstEpoch > n.epoch || n.lostState {
			// A resent message overtook our own rollback command (or
			// we are mid-recovery): defer it.
			n.materializePiggy(&m, src)
			n.inboundQueue = append(n.inboundQueue, inbound{src: src, msg: m})
			n.emit(Event{Kind: EventDeferEpoch})
			return
		}
	}
	if n.frozenDelivs {
		// Frozen by an in-progress 2PC: queue until commit (§3.1).
		n.materializePiggy(&m, src)
		n.inboundQueue = append(n.inboundQueue, inbound{src: src, msg: m})
		n.emit(Event{Kind: EventDeferFrozen})
		return
	}
	if src.Cluster == n.cluster {
		n.deliverIntra(src, m)
	} else {
		n.cicReceive(src, m)
	}
}

// piggyFits reports whether m's piggyback can be merged into this
// node's DDV: a delta one must be of the federation's width on a node
// that decodes deltas, a whole one absent or of that width, and the
// pairs of both must fit (pairsFit).
func (n *Node) piggyFits(m AppMsg) bool {
	w := n.cfg.Clusters
	if m.PiggyWidth != 0 && (int(m.PiggyWidth) != w || n.piggyCodecs == nil) {
		return false
	}
	if m.Piggy.Width != 0 && m.Piggy.Width != w {
		return false
	}
	return n.pairsFit(m.PiggyPairs) && n.pairsFit(m.Piggy.Pairs)
}

// pairsFit reports whether every pair index a peer sent lies inside
// this federation's width. Merging anything else would index past this
// node's vectors.
func (n *Node) pairsFit(pairs []DDVPair) bool {
	w := n.cfg.Clusters
	for _, p := range pairs {
		if p.Idx < 0 || int(p.Idx) >= w {
			return false
		}
	}
	return true
}

// drainInbound re-runs deferred messages whose guards may now pass
// (after a commit unfreezes delivery or a rollback bumps the epoch).
func (n *Node) drainInbound() {
	if len(n.inboundQueue) == 0 {
		return
	}
	q := n.inboundQueue
	n.inboundQueue = nil
	for _, in := range q {
		n.onAppMsg(in.src, in.msg)
	}
	if n.inboundQueue == nil {
		// Nothing deferred again: keep the backing array.
		clear(q)
		n.inboundQueue = q[:0]
	}
}

// deliverIntra hands an intra-cluster message to the application. If
// one or more checkpoint lines passed between send and receive, the
// message is folded into those checkpoints' channel state (lateLog) so
// a restore re-delivers it — keeping every committed CLC free of lost
// in-transit messages (§2.2).
func (n *Node) deliverIntra(src topology.NodeID, m AppMsg) {
	if m.SendSN < n.sn {
		// n.clcs is SN-ordered: only a suffix can lie above the send.
		for i := n.clcs.Len() - 1; i >= 0 && n.chain.Recs[i].SN > m.SendSN; i-- {
			if n.chain.Recs[i].SN <= n.sn {
				n.logLate(n.clcs.At(i), inbound{src: src, msg: m})
			}
		}
		n.emit(Event{Kind: EventLateLogged})
	}
	n.emit(Event{Kind: EventDeliverIntra})
	n.app.Deliver(src, m.Payload)
}

// cicReceive applies the communication-induced rule of §3.2 to an
// inter-cluster message: deliver directly when the piggybacked
// dependency information is already covered by the DDV; otherwise hold
// the message and force a CLC, delivering only after it commits. The
// baseline modes replace the rule: ModeForceAll checkpoints before
// every delivery, ModeIndependent never does.
func (n *Node) cicReceive(src topology.NodeID, m AppMsg) {
	switch n.cfg.Mode {
	case ModeForceAll:
		// The Figure 4 strawman: every inter-cluster message forces a
		// CLC before delivery, useful or not.
		n.heldInter = append(n.heldInter, inbound{src: src, msg: m, heldAt: n.sn})
		n.emit(Event{Kind: EventHoldForced})
		pairs := n.pairScratch[:0]
		if m.SendSN > n.ddv[src.Cluster] {
			pairs = append(pairs, DDVPair{Idx: int32(src.Cluster), SN: m.SendSN})
		}
		n.pairScratch = pairs
		n.requestForce(pairs, true)
		return
	case ModeIndependent:
		// Lazy tracking: remember the dependency locally (merged
		// cluster-wide at the next commit), deliver immediately.
		if m.SendSN > n.ddv[src.Cluster] {
			n.ddv[src.Cluster] = m.SendSN
			n.ddvChanged()
			n.recvDirty.Add(int(src.Cluster))
			n.gcScanDirty.Add(int(src.Cluster))
		}
		n.deliverInter(src, m)
		return
	}
	// ModeHC3I. Collect the entries of the piggybacked dependency
	// information that exceed the DDV: the pairs a forced CLC must raise.
	var pairs []DDVPair
	switch {
	case n.cfg.Transitive && m.Piggy.Width == 0 && m.PiggyWidth == 0:
		// A held copy of a delta-piggybacked message: only its pinned
		// entries can still exceed the DDV (see pinHeld).
		pairs = n.pairScratch[:0]
		for _, p := range m.PiggyPairs {
			if p.SN > n.ddv[p.Idx] {
				pairs = append(pairs, p)
			}
		}
		n.pairScratch = pairs
	case n.cfg.Transitive && m.Piggy.Width == 0 && m.PiggyWidth > 0:
		// Delta-encoded transitive piggyback: examine only the entries
		// that changed since this node's last clean exam of the pipe.
		pairs = n.examineDeltaPiggy(src.Cluster)
		// A held copy is re-examined after the forced commit, by which
		// time the pipe decoder has moved on: pin what this message
		// carried onto it.
		n.pinHeld(&m, src, pairs)
	case n.cfg.Transitive && m.Piggy.Width > 0:
		// Transitive extension (§7), whole vector (no pipe codec,
		// resends and replayed deferred/held copies): merge the whole
		// DDV; any raised entry is a new dependency. The sparse pairs
		// ascend, so the raised ones come out in index order.
		pairs = n.pairScratch[:0]
		for _, p := range m.Piggy.Pairs {
			if p.Idx != int32(n.cluster) && p.SN > n.ddv[p.Idx] {
				pairs = append(pairs, p)
			}
		}
		n.pairScratch = pairs
	case m.SendSN > n.ddv[src.Cluster]:
		pairs = append(n.pairScratch[:0], DDVPair{Idx: int32(src.Cluster), SN: m.SendSN})
		n.pairScratch = pairs
	}
	if len(pairs) == 0 {
		if n.anchorPending {
			// First covered delivery since the restore: take the
			// post-restore anchor CLC first (see Node.anchorPending).
			n.heldInter = append(n.heldInter, inbound{src: src, msg: m})
			n.emit(Event{Kind: EventHoldForced})
			n.emit(Event{Kind: EventPostRestoreAnchor})
			n.requestForce(nil, true)
			return
		}
		n.deliverInter(src, m)
		return
	}
	// "a CLC is forced in the receiver's cluster only when a CLC has
	// been stored in the sender's cluster since the last communication"
	n.heldInter = append(n.heldInter, inbound{src: src, msg: m})
	n.emit(Event{Kind: EventHoldMsg, Msg: m.Payload.ID, Peer: src, Seq: m.SendSN, DDV: n.ddv})
	n.requestForce(pairs, false)
}

// pipeCodecTo returns the delta codec of the outbound pipe to cluster
// dst, nil when piggybacks carry the whole vector.
func (n *Node) pipeCodecTo(dst topology.ClusterID) *DeltaCodec {
	if n.piggyCodecs == nil {
		return nil
	}
	return n.piggyCodecs.PiggyCodec(n.cluster, dst)
}

// pipeCodecFrom returns the delta codec of the inbound pipe from
// cluster src.
func (n *Node) pipeCodecFrom(src topology.ClusterID) *DeltaCodec {
	if n.piggyCodecs == nil {
		return nil
	}
	return n.piggyCodecs.PiggyCodec(src, n.cluster)
}

// examineDeltaPiggy returns the entries of a delta-encoded transitive
// piggyback that exceed this node's DDV. Only entries that changed
// since the pipe's last clean exam can newly exceed it (the cluster's
// DDV is non-decreasing between exams — any decrease resets the
// cursor through ResetPiggyExam), so the steady state examines
// nothing; short change windows replay the codec journal, longer ones
// fall back to one full-width compare loop — the dense encoding's
// exam, paid only right after a change. The cursor advances only on a
// clean (no raise) outcome: while a forced CLC is pending, later
// messages must re-examine the still-uncovered entries, exactly as
// the dense encoding re-compares the full vector every time.
func (n *Node) examineDeltaPiggy(srcCluster topology.ClusterID) []DDVPair {
	cd := n.pipeCodecFrom(srcCluster)
	// The cursor is only trusted when it was advanced in this node's
	// epoch: a peer that has not yet executed an in-flight RollbackCmd
	// examines with the old epoch's higher DDV, and its advances must
	// not cover a node whose DDV already dropped (see DeltaCodec.seen).
	cursorValid := cd.seenEpoch == n.epoch
	if cursorValid && cd.ver == cd.seen {
		return nil // nothing changed since the last clean exam
	}
	cur := cd.dec
	pairs := n.pairScratch[:0]
	own := int32(n.cluster)
	if cursorValid && cd.ver-cd.seen <= examReplayMax {
		// Replay the journalled change indices directly. No dedup: a
		// repeated index yields a duplicate pair, and every consumer
		// merges pairs element-wise-max, so duplicates are no-ops —
		// cheaper than maintaining a dedup set for windows this short.
		for v := cd.seen; v < cd.ver; v++ {
			for _, p := range cd.journal[v%codecJournal] {
				if p.Idx == own {
					continue
				}
				if v := cur[p.Idx]; v > n.ddv[p.Idx] {
					pairs = append(pairs, DDVPair{Idx: p.Idx, SN: v})
				}
			}
		}
	} else {
		pairs = raisedPairs(pairs, cur, n.ddv, own)
	}
	n.pairScratch = pairs
	if len(pairs) == 0 {
		cd.seen = cd.ver
		cd.seenEpoch = n.epoch
	}
	return pairs
}

// pinHeld rewrites m, a delta-piggybacked message from src the CIC
// rule may hold, into what its re-examination will need once the pipe
// decoder has moved on. Normally that is only the pairs it raised
// (pairs): heldInter is emptied by every rollback and restart, so the
// DDV never decreases between hold and re-exam, and an entry the
// vector did not raise at hold time cannot raise later. The held copy
// keeps them as PiggyPairs, sorted by index and deduplicated (the order
// a dense re-examination yields), with PiggyWidth zeroed: under the
// transitive extension a copy with neither PiggyWidth nor Piggy is a
// pinned one. A node awaiting a remote restore (recoverWait) is the
// exception: the restore will lower the DDV under its held messages,
// so they keep the exact vector, in Piggy.
func (n *Node) pinHeld(m *AppMsg, src topology.NodeID, pairs []DDVPair) {
	if len(pairs) == 0 && !n.anchorPending {
		return // delivered now, never held
	}
	m.PiggyPairs, m.PiggyWidth = nil, 0
	if n.recoverWait != nil {
		m.Piggy = sparseOf(n.pipeCodecFrom(src.Cluster).Current(), &n.pairArena)
		return
	}
	if len(pairs) == 0 {
		return // the post-restore anchor hold: nothing to re-raise
	}
	pin := n.pairArena.Clone(pairs)
	slices.SortFunc(pin, func(a, b DDVPair) int { return cmp.Compare(a.Idx, b.Idx) })
	m.PiggyPairs = slices.CompactFunc(pin, func(a, b DDVPair) bool { return a.Idx == b.Idx })
}

// materializePiggy pins the whole piggyback vector, in sparse form,
// onto a delta-encoded transitive message that is about to be stored
// for later replay (deferred by an epoch gap or a delivery freeze): the
// pipe decoder advances with every later message, so the exact vector
// must be captured now. No-op for intra-cluster, whole-vector or
// non-transitive messages.
func (n *Node) materializePiggy(m *AppMsg, src topology.NodeID) {
	if m.PiggyWidth == 0 || src.Cluster == n.cluster {
		return
	}
	cd := n.pipeCodecFrom(src.Cluster)
	if cd == nil {
		return
	}
	m.Piggy = sparseOf(cd.Current(), &n.pairArena)
	m.PiggyPairs, m.PiggyWidth = nil, 0
}

// priorEpochValid is the §3.4 prior-epoch validity window, shared by
// the arrival-time guard (onAppMsg) and the held-message re-check
// (staleWhileHeld) so the two can never drift apart: a message exactly
// one epoch behind whose send predates the alerted rollback point is
// part of the sender's restored state and still valid.
func (n *Node) priorEpochValid(src topology.NodeID, m AppMsg) bool {
	known := n.epochs.known(src.Cluster)
	alertEpoch, alertSN := n.epochs.alert(src.Cluster)
	return m.SrcEpoch+1 == known &&
		known == alertEpoch &&
		m.SendSN < alertSN
}

// staleWhileHeld reports whether a held inter-cluster message turned
// stale while it waited: the sender's rollback alert arrived after the
// arrival-time epoch guard ran, so its epoch now trails the sender's
// known epoch without qualifying for the prior-epoch validity window.
// Without this re-check, a resend emitted just before the sender's own
// cascaded rollback (its send is then *not* part of the restored
// state) could be held for a forced CLC and delivered as an orphan —
// the §3.4 discipline re-applied at delivery time. Found by the
// invariant oracle under chaos schedules.
func (n *Node) staleWhileHeld(src topology.NodeID, m AppMsg) bool {
	if src.Cluster == n.cluster || m.SrcEpoch >= n.epochs.known(src.Cluster) {
		return false
	}
	return !n.priorEpochValid(src, m)
}

// reexamineHeld retries held inter-cluster messages after a commit:
// drop those whose sender rolled back while they waited, deliver those
// the new DDV covers, re-demand a forced CLC for the rest (they
// arrived mid-2PC with an even newer dependency). Never delivers while
// deliveries are frozen: on the leader, an uncovered message's force
// demand opens the next 2PC *synchronously* (snapshot already taken),
// and a delivery slipped in behind that snapshot would be acked at the
// pre-commit SN — "captured by the next checkpoint" by the ack
// convention — while the checkpoint's state predates it; a later
// rollback to that checkpoint then erased a delivery the sender
// believed stable, losing the message. Found by the chaos tier's
// mid-2PC crash injection via the message-completeness invariant.
func (n *Node) reexamineHeld() {
	if len(n.heldInter) == 0 || n.frozenDelivs {
		// Frozen: the in-flight commit re-examines on completion.
		return
	}
	// Walk the held list while re-holding into the spare buffer. The
	// spare is detached meanwhile: a commit completing synchronously
	// inside the walk (a one-node cluster) re-enters here and must not
	// take the buffer this walk is filling as its spare.
	held := n.heldInter
	n.heldInter, n.heldSpare = n.heldSpare, nil
	defer func() {
		clear(held)
		n.heldSpare = held[:0]
	}()
	for i, in := range held {
		if n.frozenDelivs {
			// An earlier iteration re-opened the next 2PC: hold the
			// rest for its commit, past the fresh snapshot.
			n.heldInter = append(n.heldInter, held[i:]...)
			return
		}
		if n.staleWhileHeld(in.src, in.msg) && !Mutate.AcceptStaleEpoch {
			n.emit(Event{Kind: EventDropStaleHeld})
			continue
		}
		if n.cfg.Mode == ModeForceAll {
			if n.sn > in.heldAt {
				n.deliverInter(in.src, in.msg)
			} else {
				n.heldInter = append(n.heldInter, in)
				n.requestForce(nil, true)
			}
			continue
		}
		n.cicReceive(in.src, in.msg)
	}
}

// deliverInter hands an inter-cluster message to the application and
// acknowledges it with the receiver cluster's SN at delivery time; the
// sender attaches that SN to its log entry (§3.3). Forced-CLC
// deliveries therefore carry "the local SN + 1" exactly as in §4.
func (n *Node) deliverInter(src topology.NodeID, m AppMsg) {
	if m.Resend {
		n.emit(Event{Kind: EventDeliverResent})
	}
	n.emit(Event{Kind: EventDeliver, Peer: src, PeerEpoch: m.SrcEpoch, Seq: m.SendSN, Epoch: n.epoch, SN: n.sn})
	n.app.Deliver(src, m.Payload)
	ack := AppAck{MsgID: m.MsgID, SrcCluster: n.cluster, SrcEpoch: n.epoch, ReceiverSN: n.sn}
	if n.boxes != nil {
		b := n.boxes.AppAckBox()
		*b = ack
		n.env.Send(src, controlSize(ack), b)
		return
	}
	n.env.Send(src, controlSize(ack), ack)
}

// onAppAck records the receiver SN on the matching log entry.
func (n *Node) onAppAck(src topology.NodeID, m AppAck) {
	if m.SrcEpoch < n.epochs.known(src.Cluster) {
		return
	}
	n.epochs.raiseKnown(src.Cluster, m.SrcEpoch)
	if e := n.logIndex[m.MsgID]; e != nil {
		e.acked = true
		e.ackSN = m.ReceiverSN
		return
	}
	// Entry already garbage-collected or pruned by a rollback: ignore.
	n.emit(Event{Kind: EventAckOrphan})
}

// resendLoggedTo retransmits the logged messages the rolled-back
// cluster needs: those not yet acknowledged, or acknowledged with an SN
// not captured by the restored checkpoint (§3.4). The paper states the
// rule as "acknowledged with a SN greater than the alert one (or not
// acknowledged at all)" under its ack = SN+1 convention; with our acks
// carrying the delivery-time SN the equivalent test is ackSN >= alertSN
// (a delivery at SN k is first captured by the checkpoint with SN k+1).
func (n *Node) resendLoggedTo(c topology.ClusterID, alertSN SN, newEpoch Epoch) {
	for _, e := range n.log {
		if e.dstCluster != c {
			continue
		}
		if e.acked && e.ackSN < alertSN {
			continue
		}
		e.acked = false
		m := n.resendMsg(e, newEpoch)
		n.emit(Event{Kind: EventResend, Msg: e.payload.ID, Peer: e.dst, Seq: alertSN})
		n.sendAppMsg(e.dst, m)
	}
}

// resendMsg rebuilds a logged message for a resend in this node's
// epoch, addressed to the receiver cluster's epoch dstEpoch, carrying
// the logged piggyback itself.
func (n *Node) resendMsg(e *logEntry, dstEpoch Epoch) AppMsg {
	return AppMsg{
		MsgID:      e.msgID,
		Payload:    e.payload,
		SrcCluster: n.cluster,
		SrcEpoch:   n.epoch,
		SendSN:     e.piggySN,
		Piggy:      e.piggy,
		Resend:     true,
		DstEpoch:   dstEpoch,
	}
}

// pruneLogForOwnRollback drops log entries whose sends are not part of
// the restored state (they will be re-executed by the application):
// "logged messages are used only if the sender does not rollback".
func (n *Node) pruneLogForOwnRollback(toSN SN) {
	n.filterLog(func(e *logEntry) bool { return e.piggySN < toSN })
}
