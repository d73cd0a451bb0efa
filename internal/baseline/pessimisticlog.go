package baseline

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// PessimisticLog models an MPICH-V-style protocol ([3] in the paper):
// every application message is logged so that "a faulty node will
// rollback, but not the others". Each node takes uncoordinated local
// snapshots; every received message is recorded (and mirrored to the
// neighbour, standing in for MPICH-V's channel memories); recovery
// restores the failed node's snapshot and replays its logged receipts
// in order. This requires piecewise determinism (PWD) — the assumption
// HC3I explicitly avoids (§2.2) — so it is only sound under
// deterministic workloads.
type PessimisticLog struct {
	common

	seq     core.SN // local snapshot sequence
	snaps   []*snapshotRec
	recvLog []loggedRecv // receipts since the last snapshot (in order)
	// mirror holds the neighbour's snapshot + receive log (its channel
	// memory), keyed by the owner.
	mirrorSnap map[topology.NodeID]*snapshotRec
	mirrorLog  map[topology.NodeID][]loggedRecv
	// sendLog holds sent messages until the receiver confirms the
	// receipt is safely logged; on a failure alert they are resent.
	sendLog   map[uint64]pendingSend
	nextMsgID uint64
	recovered bool
	// awaitingRecovery buffers application messages that arrive after a
	// restart but before the snapshot+log replay: delivering them first
	// would ack the sender and then lose the receipt when the snapshot
	// restore rewinds the application state.
	awaitingRecovery bool
	pendingApp       []wire
}

type loggedRecv struct {
	From    topology.NodeID
	Payload core.AppPayload
	AtSeq   core.SN
}

type pendingSend struct {
	Dst     topology.NodeID
	Payload core.AppPayload
}

// NewPessimisticLog builds one node of the message-logging baseline.
func NewPessimisticLog(cfg core.Config, env core.Env, app core.AppHooks, stats *sim.Stats) *PessimisticLog {
	p := &PessimisticLog{
		common:     newCommon(cfg, env, app, stats),
		mirrorSnap: make(map[topology.NodeID]*snapshotRec),
		mirrorLog:  make(map[topology.NodeID][]loggedRecv),
		sendLog:    make(map[uint64]pendingSend),
	}
	state, size := app.Snapshot()
	p.seq = 1
	p.snaps = append(p.snaps, &snapshotRec{Seq: 1, State: state, Size: size, At: env.Now()})
	return p
}

// Start arms the node's local snapshot timer (every node has one —
// snapshots are uncoordinated).
func (p *PessimisticLog) Start() {
	p.env.SetTimer(core.TimerCLC, p.cfg.CLCPeriod)
}

// SN returns the local snapshot sequence number.
func (p *PessimisticLog) SN() core.SN { return p.seq }

// StoredCount returns stored snapshots (only the newest is kept).
func (p *PessimisticLog) StoredCount() int { return len(p.snaps) }

// LogLen returns the number of volatile message-log entries (receipts
// logged since the last snapshot plus unacknowledged sends), the
// quantity the scenario matrix reports as the log high-water mark.
func (p *PessimisticLog) LogLen() int { return len(p.recvLog) + len(p.sendLog) }

// LogBytes approximates the volatile memory consumed by message logs.
func (p *PessimisticLog) LogBytes() int {
	total := 0
	for _, r := range p.recvLog {
		total += r.Payload.Size
	}
	for _, l := range p.mirrorLog {
		for _, r := range l {
			total += r.Payload.Size
		}
	}
	return total
}

// Fail crashes the node.
func (p *PessimisticLog) Fail() { p.failed = true }

// Restart revives the node; recovery happens on failure detection.
func (p *PessimisticLog) Restart() {
	p.failed = false
	p.recovered = false
	p.awaitingRecovery = true
	p.snaps = nil
	p.recvLog = nil
	p.pendingApp = nil
}

// Send transmits a payload; a copy stays in the send log until the
// receiver confirms it logged the receipt.
func (p *PessimisticLog) Send(dst topology.NodeID, payload core.AppPayload) {
	if p.failed {
		return
	}
	p.nextMsgID++
	p.sendLog[p.nextMsgID] = pendingSend{Dst: dst, Payload: payload}
	p.notePeak(p.LogLen())
	m := wire{Kind: "app", From: p.id, Payload: payload, MsgID: p.nextMsgID}
	p.sendApp(dst, m)
	p.count("plog.sent", 1)
}

// OnTimer takes a local snapshot: no coordination, no freeze — the
// receive log makes the snapshot recoverable at any cut.
func (p *PessimisticLog) OnTimer(k core.TimerKind) {
	if p.failed || k != core.TimerCLC {
		return
	}
	state, size := p.app.Snapshot()
	p.seq++
	p.snaps = []*snapshotRec{{Seq: p.seq, State: state, Size: size, At: p.env.Now()}}
	p.recvLog = nil // receipts are inside the snapshot now
	// Replicate snapshot to the neighbour (channel memory / stable
	// storage) and let it truncate our mirrored receive log.
	m := wire{Kind: "snap", Seq: p.seq, From: p.id, State: state, Size: size}
	p.send(p.neighbour(), m)
	p.countCommit(&p.names)
	p.env.SetTimer(core.TimerCLC, p.cfg.CLCPeriod)
}

// OnMessage dispatches the baseline's wire messages.
func (p *PessimisticLog) OnMessage(src topology.NodeID, msg core.Msg) {
	if p.failed {
		return
	}
	m, ok := unwrap(msg)
	if !ok {
		return
	}
	switch m.Kind {
	case "app":
		if p.awaitingRecovery {
			// Mid-recovery: hold the message; delivering (and acking)
			// now would lose the receipt when the snapshot restores.
			p.pendingApp = append(p.pendingApp, m)
			return
		}
		p.deliverApp(m)
	case "logcopy":
		p.mirrorLog[src] = append(p.mirrorLog[src], loggedRecv{From: m.From, Payload: m.Payload, AtSeq: m.Seq})
	case "logged":
		delete(p.sendLog, m.MsgID)
	case "snap":
		p.mirrorSnap[m.From] = &snapshotRec{Seq: m.Seq, State: m.State, Size: m.Size, At: p.env.Now()}
		p.mirrorLog[m.From] = nil
	case "recover-req":
		p.serveRecovery(m.From)
	case "recover-resp":
		if m.State != nil {
			p.app.Restore(m.State)
			p.seq = m.Seq
			p.snaps = []*snapshotRec{{Seq: m.Seq, State: m.State, Size: m.Size, At: p.env.Now()}}
		}
		p.recovered = true
		p.awaitingRecovery = false
		p.count("plog.recoveries", 1)
		p.env.SetTimer(core.TimerCLC, p.cfg.CLCPeriod)
		// Messages buffered during recovery now deliver normally; the
		// mirrored-log replay entries precede them on the wire, so
		// ordering per sender is preserved.
		pend := p.pendingApp
		p.pendingApp = nil
		for _, pm := range pend {
			p.deliverApp(pm)
		}
	case "replay":
		// Re-delivery of a logged receipt (PWD: same order, same content).
		p.recvLog = append(p.recvLog, loggedRecv{From: m.From, Payload: m.Payload, AtSeq: p.seq})
		p.notePeak(p.LogLen())
		p.app.Deliver(m.From, m.Payload)
		p.count("plog.replayed", 1)
	case "alert":
		p.resendTo(m.From)
	}
}

// serveRecovery ships the restarted node its mirrored snapshot and
// replays its mirrored receive log in order (the channel memory).
func (p *PessimisticLog) serveRecovery(from topology.NodeID) {
	snap := p.mirrorSnap[from]
	resp := wire{Kind: "recover-resp", From: p.id}
	if snap != nil {
		resp.Seq = snap.Seq
		resp.State = snap.State
		resp.Size = snap.Size
	}
	p.send(from, resp)
	for _, r := range p.mirrorLog[from] {
		rm := wire{Kind: "replay", From: r.From, Payload: r.Payload}
		p.send(from, rm)
	}
}

// resendTo resends, in send order, every unconfirmed message addressed
// to a failed node (its receive log may have missed them).
func (p *PessimisticLog) resendTo(failed topology.NodeID) {
	for _, id := range sortedIDs(p.sendLog) {
		if s := p.sendLog[id]; s.Dst == failed {
			rm := wire{Kind: "app", From: p.id, Payload: s.Payload, MsgID: id}
			p.sendApp(s.Dst, rm)
			p.count("plog.resent", 1)
		}
	}
}

// deliverApp performs the pessimistic-logging receive: record, mirror
// to the channel memory, deliver, then confirm to the sender.
func (p *PessimisticLog) deliverApp(m wire) {
	rec := loggedRecv{From: m.From, Payload: m.Payload, AtSeq: p.seq}
	p.recvLog = append(p.recvLog, rec)
	p.notePeak(p.LogLen())
	mir := wire{Kind: "logcopy", From: p.id, Payload: m.Payload, Seq: p.seq, MsgID: m.MsgID}
	p.send(p.neighbour(), mir)
	p.app.Deliver(m.From, m.Payload)
	ack := wire{Kind: "logged", From: p.id, MsgID: m.MsgID}
	p.send(m.From, ack)
	p.count("plog.logged", 1)
}

// OnFailureDetected recovers the failed node alone: "a faulty node
// will rollback, but not the others" (§6 on MPICH-V). The detector
// notifies a survivor, which triggers the failed node's recovery and
// alerts all nodes to resend unconfirmed traffic.
func (p *PessimisticLog) OnFailureDetected(failed topology.NodeID) {
	if p.failed {
		return
	}
	p.countRollback(failed.Cluster)
	// Tell the failed (now restarted) node to pull its state from its
	// neighbour's channel memory. In a two-node cluster the notified
	// survivor IS the holder: serve the recovery locally instead of
	// sending to self.
	holder := topology.NodeID{Cluster: failed.Cluster, Index: (failed.Index + 1) % p.cfg.ClusterSizes[failed.Cluster]}
	if holder == p.id {
		p.serveRecovery(failed)
	} else {
		// Route the request as if issued by the failed node itself.
		req := wire{Kind: "recover-req", From: failed}
		p.send(holder, req)
	}
	alert := wire{Kind: "alert", From: failed}
	p.broadcast(alert)
	// The alert loop excludes this node; apply its effect locally so
	// the coordinator's own unconfirmed sends are retransmitted too.
	p.resendTo(failed)
}
