package baseline

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// GlobalCoordinated checkpoints the entire federation with one
// two-phase commit: the global initiator (cluster 0, node 0) freezes
// every node — across WAN links — snapshots, then commits. It is
// correct and simple, but the freeze window scales with the slowest
// link and the node count, which is exactly why the paper rejects it
// for federations (§2.2). A failure rolls back every node to the last
// global checkpoint.
type GlobalCoordinated struct {
	coordinated // seq is the global checkpoint sequence number

	// Every cluster's statistic names, rendered once (the initiator
	// commits on behalf of every cluster, so common's own-cluster names
	// are not enough here).
	clusterNames []core.StatNames

	// initiator state
	inFlight bool
	acks     map[topology.NodeID]bool
	reqAt    sim.Time
	rbActive bool
	rbAcks   map[topology.NodeID]bool
}

// NewGlobalCoordinated builds one node of the global-coordinated
// baseline; use it as a federation.NodeFactory.
func NewGlobalCoordinated(cfg core.Config, env core.Env, app core.AppHooks, stats *sim.Stats) *GlobalCoordinated {
	return &GlobalCoordinated{coordinated: newCoordinated(cfg, env, app, stats, "gcoord")}
}

// Restart revives the node. For simplicity of the baseline, the state
// survives on the neighbour implicitly: the next global rollback
// restores everyone anyway.
func (g *GlobalCoordinated) Restart() {
	g.restart()
	g.inFlight = false
}

// OnTimer starts a global checkpoint on the initiator.
func (g *GlobalCoordinated) OnTimer(k core.TimerKind) {
	if g.failed || k != core.TimerCLC || !g.initiator() {
		return
	}
	if g.inFlight || g.rbActive {
		g.env.SetTimer(core.TimerCLC, g.cfg.CLCPeriod)
		return
	}
	g.inFlight = true
	g.acks = make(map[topology.NodeID]bool)
	g.reqAt = g.env.Now()
	req := wire{Kind: "prep", Seq: g.seq + 1, Epoch: g.epoch}
	g.broadcast(req)
	g.prepare(req.Seq)
	g.acks[g.id] = true
	g.maybeCommit()
}

// OnMessage dispatches baseline wire messages.
func (g *GlobalCoordinated) OnMessage(src topology.NodeID, msg core.Msg) {
	if g.failed {
		return
	}
	m, ok := unwrap(msg)
	if !ok {
		return
	}
	switch m.Kind {
	case "app":
		g.receiveApp(m)
	case "app-ack":
		delete(g.sendLog, m.MsgID)
	case "prep":
		if m.Epoch != g.epoch {
			return
		}
		g.prepare(m.Seq)
		ack := wire{Kind: "ack", Seq: m.Seq, Epoch: g.epoch, From: g.id}
		g.send(src, ack)
	case "ack":
		if !g.inFlight || m.Epoch != g.epoch {
			return
		}
		g.acks[m.From] = true
		g.maybeCommit()
	case "commit":
		if m.Epoch != g.epoch {
			return
		}
		g.applyCommit(m.Seq)
	case "rollback":
		if m.Epoch <= g.epoch {
			return
		}
		g.restore(m.Seq, m.Epoch)
		ack := wire{Kind: "rback-ack", Seq: m.Seq, Epoch: m.Epoch, From: g.id}
		g.send(src, ack)
	case "rback-ack":
		if !g.rbActive || m.Epoch != g.epoch {
			return
		}
		g.rbAcks[m.From] = true
		if len(g.rbAcks) == len(g.allNodes()) {
			g.rbActive = false
			res := wire{Kind: "resume", Epoch: g.epoch}
			g.broadcast(res)
			g.resume()
		}
	case "resume":
		if m.Epoch != g.epoch {
			return
		}
		g.resume()
	case "replica":
		// Neighbour state received; stored implicitly (priced only).
	}
}

func (g *GlobalCoordinated) maybeCommit() {
	if len(g.acks) < len(g.allNodes()) {
		return
	}
	g.inFlight = false
	seq := g.seq + 1
	com := wire{Kind: "commit", Seq: seq, Epoch: g.epoch}
	g.broadcast(com)
	g.applyCommit(seq)
	freeze := g.env.Now().Sub(g.reqAt)
	g.count("gcoord.committed", 1)
	g.count("gcoord.freeze_us_total", uint64(freeze/sim.Microsecond))
	if g.clusterNames == nil {
		// Rendered lazily: only the initiator commits on behalf of every
		// cluster, so the other nodes never pay for these nc names.
		for c := 0; c < g.cfg.Clusters; c++ {
			g.clusterNames = append(g.clusterNames, core.NewStatNames(topology.ClusterID(c)))
		}
	}
	for c := range g.clusterNames {
		g.countCommit(&g.clusterNames[c])
	}
	g.env.SetTimer(core.TimerCLC, g.cfg.CLCPeriod)
}

func (g *GlobalCoordinated) applyCommit(seq core.SN) {
	g.seq = seq
	// Only the newest global checkpoint can ever be restored: prune.
	g.snaps = g.snaps[:0]
	g.snaps = append(g.snaps, &snapshotRec{Seq: seq, State: g.provState, Size: g.provSize, At: g.env.Now()})
	g.frozen = false
	g.drain()
}

// OnFailureDetected rolls the whole federation back to the last global
// checkpoint; the notified survivor coordinates.
func (g *GlobalCoordinated) OnFailureDetected(failed topology.NodeID) {
	if g.failed || g.rbActive {
		return
	}
	newEpoch := g.epoch + 1
	g.rbActive = true
	g.rbAcks = map[topology.NodeID]bool{g.id: true}
	last := g.snaps[len(g.snaps)-1]
	cmd := wire{Kind: "rollback", Seq: last.Seq, Epoch: newEpoch}
	g.broadcast(cmd)
	for c := 0; c < g.cfg.Clusters; c++ {
		g.countRollback(topology.ClusterID(c))
	}
	g.count("gcoord.rollbacks", 1)
	g.restore(last.Seq, newEpoch)
}

func (g *GlobalCoordinated) restore(seq core.SN, epoch core.Epoch) {
	g.inFlight = false
	g.sendQ = nil
	g.inbQ = nil
	var rec *snapshotRec
	for _, s := range g.snaps {
		if s.Seq == seq {
			rec = s
		}
	}
	if rec == nil {
		// A restarted node lost its snapshot; re-adopt the initial
		// application state via a fresh snapshot of whatever the app
		// restored — in this simplified baseline the neighbour copy is
		// modelled as always available.
		state, size := g.app.Snapshot()
		rec = &snapshotRec{Seq: seq, State: state, Size: size, At: g.env.Now()}
		g.snaps = []*snapshotRec{rec}
	}
	g.app.Restore(rec.State)
	for _, p := range rec.Late {
		g.app.Deliver(g.id, p)
	}
	g.seq = seq
	g.epoch = epoch
	g.frozen = true // until resume
}

func (g *GlobalCoordinated) resume() {
	g.frozen = false
	g.drain()
	g.resendUnacked()
	if g.initiator() {
		g.env.SetTimer(core.TimerCLC, g.cfg.CLCPeriod)
	}
}
