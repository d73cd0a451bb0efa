package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// EventKind names one of the protocol's observation points.
type EventKind uint8

// Event kinds, one per observation point. The comment of each names
// the fields it sets; every other field is zero. The kinds from
// EventNodeStart on carry the oracle's safety picture or a statistic,
// not trace text: their Level is sim.TraceOff, so no tracer prints them.
const (
	// EventCLCRequest: the leader opens a 2PC (Seq, Forced, Pairs: the
	// forced update, nil for an unforced CLC).
	EventCLCRequest EventKind = iota + 1
	// EventCLCRequestBusy: a participant ignores a request received
	// mid-commit (Seq, Phase).
	EventCLCRequestBusy
	// EventCLCRequestStale: a participant ignores an out-of-sequence
	// request (Seq, SN: the node's committed SN).
	EventCLCRequestStale
	// EventCLCCommitted: a node installed a committed CLC — after it
	// adopted the new SN and DDV and stored the record, before any
	// queued traffic drains (Seq, Epoch, DDV: the committed vector,
	// Pairs: its delta against the previous commit, Forced).
	EventCLCCommitted
	// EventHoldMsg: an inter-cluster message is held until a forced CLC
	// commits (Msg, Peer: the sender, Seq: the piggybacked SN, DDV: the
	// receiver's vector).
	EventHoldMsg
	// EventResend: a logged message is retransmitted after a rollback
	// alert (Msg, Peer: the destination, Seq: the alerted SN).
	EventResend
	// EventGCStart: the GC initiator opens a round (Round).
	EventGCStart
	// EventGCFailed: a GC round is abandoned (Round, Err).
	EventGCFailed
	// EventRollback: the leader starts a cluster rollback (Seq: the
	// target SN, Epoch: the new epoch).
	EventRollback
	// EventReplicaMiss: a recovery query asks for a replica this node
	// does not hold (Seq, Peer: the owner).
	EventReplicaMiss
	// EventRollbackDone: the leader's rollback completed (Seq, Epoch).
	EventRollbackDone
	// EventNoRollbackTarget: no stored CLC satisfies a rollback alert
	// (Cluster: the alerting cluster, Seq: its alerted SN).
	EventNoRollbackTarget
	// EventFailed: the node crashed.
	EventFailed
	// EventRestarted: the node restarted with empty volatile memory.
	EventRestarted
	// EventNodeStart: the node was constructed (Mode). Mode scopes the
	// oracle's claims: ModeIndependent's lazy dependency tracking gives
	// up the no-orphan obligation by design (§2.2).
	EventNodeStart
	// EventRestore: the node completed a local restore, in place or by
	// crash recovery (Seq: the restored SN, Epoch: the new epoch, DDV:
	// the restored vector).
	EventRestore
	// EventDeliver: an inter-cluster message is handed to the
	// application (Peer: the sender, PeerEpoch and Seq: the message's
	// piggybacked epoch and SN, Epoch and SN: the receiver's).
	EventDeliver
	// EventGCDrop: the node applies round Round's garbage-collection
	// threshold vector (DDV: the minimum SN kept per cluster).
	EventGCDrop

	// The counting kinds: each only feeds the statistic statDefs names
	// for it, at sim.TraceOff, and neither the oracle nor the journal
	// reads it. The series kinds (clc.freeze_seconds through gc.after)
	// and the bulk adds (gc.clcs_removed, gc.log_entries_removed)
	// carry their number in Value; every other one counts one.
	EventForceRequested
	EventSendFrozen
	EventLogAppended
	EventDropStale
	EventRefuseWidth
	EventAcceptPriorEpoch
	EventDeferEpoch
	EventDeferFrozen
	EventLateLogged
	EventDeliverIntra
	EventHoldForced
	EventPostRestoreAnchor
	EventDropStaleHeld
	EventDeliverResent
	EventAckOrphan
	EventGCDemand
	EventGCDemandCoalesced
	EventGCDemandRound
	EventGCUnsupported
	EventGCSkipBusy
	EventGCMessage
	EventGCAbort
	EventGCComplete
	EventGCCLCsRemoved
	EventGCLogRemoved
	EventFailureDetected
	EventAlertSent
	EventRedeliverLate
	EventRecoverState
	EventRecoverLogEntry
	EventRereplicate
	EventMirrorRefuseWidth
	EventRefuseControl
	EventRefuseRollback
	EventResendRecovered
	EventCascadeSuppressed
	EventCascade
	EventRollbackRestart
	EventCLCAbort
	EventCLCFreeze
	EventStorageBytes
	EventCLCStored
	EventLogSize
	EventGCBefore
	EventGCAfter
	// NumEventKinds bounds the kinds; keep it last.
	NumEventKinds
)

// Event is one protocol observation: a value, emitted synchronously at
// its observation point and passed by value, so a node with no
// EventSink builds nothing and allocates nothing.
//
// DDV and Pairs alias node-owned buffers (a committed vector is the
// node's commit base, which the next commit overwrites): a sink that
// keeps either past its Event call must copy it. A commit's Pairs and
// a piggyback send's Pairs are immutable (see Chain and SparseDDV) and
// may be retained.
type Event struct {
	Kind      EventKind
	Mode      ProtocolMode
	Forced    bool
	Seq       SN
	SN        SN
	Epoch     Epoch
	PeerEpoch Epoch
	Phase     int
	Round     uint64
	Cluster   topology.ClusterID
	Peer      topology.NodeID
	Msg       LogicalID
	Pairs     []DDVPair
	DDV       DDV
	Err       error
	// Value is the number a statistic records: a series point, a bulk
	// add, or the rollback duration EventRollbackDone carries.
	Value float64
}

// EventSink is an optional upgrade interface of Env, resolved once at
// node construction like BoxPool: an environment that implements it
// receives every protocol Event — the protocol's one observation
// channel, feeding the tracer, the invariant oracle, the live journal
// and the run's statistics (see StatForm). Event runs synchronously on the node's event path and must
// copy any DDV or Pairs it keeps. Environments that do not implement
// it pay one nil check per observation point.
type EventSink interface {
	Event(Event)
}

// Level is the trace level the event is reported at: lifecycle events
// (rollbacks, GC rounds, crashes) at TraceInfo, per-checkpoint and
// per-message events at TraceDebug, and the oracle's observations and
// the counting kinds (EventNodeStart on) at TraceOff — never printed.
func (e Event) Level() sim.TraceLevel {
	if e.Kind >= EventNodeStart {
		return sim.TraceOff
	}
	switch e.Kind {
	case EventGCStart, EventGCFailed, EventRollback, EventReplicaMiss,
		EventRollbackDone, EventNoRollbackTarget, EventFailed, EventRestarted:
		return sim.TraceInfo
	}
	return sim.TraceDebug
}

// String renders the event as its one-line trace text.
func (e Event) String() string {
	switch e.Kind {
	case EventCLCRequest:
		return fmt.Sprintf("CLC %d request (forced=%v update=%v)", e.Seq, e.Forced, e.Pairs)
	case EventCLCRequestBusy:
		return fmt.Sprintf("ignoring CLC request %d while in phase %d", e.Seq, e.Phase)
	case EventCLCRequestStale:
		return fmt.Sprintf("ignoring out-of-sequence CLC request %d (sn=%d)", e.Seq, e.SN)
	case EventCLCCommitted:
		return fmt.Sprintf("CLC %d committed ddv=%v forced=%v", e.Seq, e.DDV, e.Forced)
	case EventHoldMsg:
		return fmt.Sprintf("hold msg %v from %v (piggy %d > ddv %v), forcing CLC", e.Msg, e.Peer, e.Seq, e.DDV)
	case EventResend:
		return fmt.Sprintf("resend %v to %v (alert sn=%d)", e.Msg, e.Peer, e.Seq)
	case EventGCStart:
		return fmt.Sprintf("GC round %d starting", e.Round)
	case EventGCFailed:
		return fmt.Sprintf("GC round %d failed: %v", e.Round, e.Err)
	case EventRollback:
		return fmt.Sprintf("ROLLBACK to CLC %d (epoch %d)", e.Seq, e.Epoch)
	case EventReplicaMiss:
		return fmt.Sprintf("replica %d for %v not held here", e.Seq, e.Peer)
	case EventRollbackDone:
		return fmt.Sprintf("rollback to %d complete, resuming (epoch %d)", e.Seq, e.Epoch)
	case EventNoRollbackTarget:
		return fmt.Sprintf("NO rollback target for alert c%d sn=%d; using oldest", e.Cluster, e.Seq)
	case EventFailed:
		return "FAILED"
	case EventRestarted:
		return "RESTARTED (volatile memory lost)"
	case EventNodeStart:
		return fmt.Sprintf("start (mode=%v)", e.Mode)
	case EventRestore:
		return fmt.Sprintf("restored CLC %d ddv=%v (epoch %d)", e.Seq, e.DDV, e.Epoch)
	case EventDeliver:
		return fmt.Sprintf("deliver from %v (epoch %d sn=%d) at sn=%d (epoch %d)", e.Peer, e.PeerEpoch, e.Seq, e.SN, e.Epoch)
	case EventGCDrop:
		return fmt.Sprintf("GC round %d drop below %v", e.Round, e.DDV)
	}
	if e.Kind > EventGCDrop && e.Kind < NumEventKinds {
		return fmt.Sprintf("stat %s %v", e.Kind.StatName(), e.Value)
	}
	return fmt.Sprintf("Event(kind=%d)", e.Kind)
}

// emit hands ev to the environment's sink, if it has one.
func (n *Node) emit(ev Event) {
	if n.sink != nil {
		n.sink.Event(ev)
	}
}
