package baseline

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// HierCoord models the hierarchical *coordinated* protocol of Paul,
// Gupta and Badrinath ([9] in the paper): checkpointing is coordinated
// at both levels — each cluster runs its local two-phase commit, and a
// federation initiator paces all clusters onto common checkpoint
// *lines* with relaxed synchronization (no global freeze). Unlike
// HC3I, every cluster checkpoints on every line whether it communicated
// or not, and a failure rolls every cluster back to the last complete
// line. "In [9] it is the coordinated checkpointing mechanism that is
// relaxed between clusters. It is not a hybrid protocol like ours" (§6).
type HierCoord struct {
	coordinated // seq is the completed line number as known here

	// cluster-leader state
	clusterInFlight bool
	clusterAcks     map[int]bool

	// federation-initiator state
	lineInFlight bool
	lineReports  map[topology.ClusterID]bool

	rbActive bool
	rbAcks   map[int]bool
}

// NewHierCoord builds one node of the hierarchical-coordinated
// baseline.
func NewHierCoord(cfg core.Config, env core.Env, app core.AppHooks, stats *sim.Stats) *HierCoord {
	return &HierCoord{coordinated: newCoordinated(cfg, env, app, stats, "hiercoord")}
}

func (h *HierCoord) leader() bool { return h.id.Index == 0 }

// Restart revives the node with its snapshots intact.
func (h *HierCoord) Restart() {
	h.restart()
	h.clusterInFlight = false
}

// OnTimer opens a new line on the initiator: one message per cluster
// leader, each cluster checkpoints locally, no global freeze.
func (h *HierCoord) OnTimer(k core.TimerKind) {
	if h.failed || k != core.TimerCLC || !h.initiator() {
		return
	}
	h.env.SetTimer(core.TimerCLC, h.cfg.CLCPeriod)
	if h.lineInFlight || h.rbActive {
		return
	}
	h.lineInFlight = true
	h.lineReports = make(map[topology.ClusterID]bool)
	next := h.seq + 1
	for c := 0; c < h.cfg.Clusters; c++ {
		if c == 0 {
			h.startClusterCLC(next)
			continue
		}
		m := wire{Kind: "take", Seq: next, Epoch: h.epoch}
		h.send(topology.NodeID{Cluster: topology.ClusterID(c), Index: 0}, m)
	}
}

func (h *HierCoord) startClusterCLC(seq core.SN) {
	if h.clusterInFlight {
		return
	}
	h.clusterInFlight = true
	h.clusterAcks = map[int]bool{}
	req := wire{Kind: "prep", Seq: seq, Epoch: h.epoch}
	for i := 1; i < h.size; i++ {
		h.send(topology.NodeID{Cluster: h.id.Cluster, Index: i}, req)
	}
	h.prepare(seq)
	h.clusterAcks[0] = true
	h.maybeClusterCommit(seq)
}

func (h *HierCoord) maybeClusterCommit(seq core.SN) {
	if len(h.clusterAcks) < h.size {
		return
	}
	h.clusterInFlight = false
	com := wire{Kind: "commit", Seq: seq, Epoch: h.epoch}
	for i := 1; i < h.size; i++ {
		h.send(topology.NodeID{Cluster: h.id.Cluster, Index: i}, com)
	}
	h.applyCommit(seq)
	h.countCommit(&h.names)
	// Report line completion to the federation initiator.
	if h.initiator() {
		h.lineReports[0] = true
		h.maybeLineDone()
		return
	}
	m := wire{Kind: "done", Seq: seq, Epoch: h.epoch, From: h.id}
	h.send(topology.NodeID{Cluster: 0, Index: 0}, m)
}

func (h *HierCoord) maybeLineDone() {
	if !h.lineInFlight || len(h.lineReports) < h.cfg.Clusters {
		return
	}
	h.lineInFlight = false
	h.count("hiercoord.lines_completed", 1)
}

func (h *HierCoord) applyCommit(seq core.SN) {
	h.seq = seq
	h.snaps = append(h.snaps, &snapshotRec{Seq: seq, State: h.provState, Size: h.provSize, At: h.env.Now()})
	// Clusters are at most one line apart (the initiator opens line
	// L+1 only once L completed everywhere), so keeping three lines
	// guarantees that every node still holds any other node's
	// second-newest line — the rollback target.
	if len(h.snaps) > 3 {
		h.snaps = h.snaps[len(h.snaps)-3:]
	}
	h.frozen = false
	h.drain()
}

// OnMessage dispatches the baseline's wire messages.
func (h *HierCoord) OnMessage(src topology.NodeID, msg core.Msg) {
	if h.failed {
		return
	}
	m, ok := unwrap(msg)
	if !ok {
		return
	}
	switch m.Kind {
	case "app":
		h.receiveApp(m)
	case "app-ack":
		delete(h.sendLog, m.MsgID)
	case "replica":
		// Neighbour state received; stored implicitly (priced only).
	case "take":
		if m.Epoch != h.epoch || !h.leader() {
			return
		}
		h.startClusterCLC(m.Seq)
	case "prep":
		if m.Epoch != h.epoch {
			return
		}
		h.prepare(m.Seq)
		ack := wire{Kind: "ack", Seq: m.Seq, Epoch: h.epoch, From: h.id}
		h.send(src, ack)
	case "ack":
		if m.Epoch != h.epoch || !h.clusterInFlight {
			return
		}
		h.clusterAcks[m.From.Index] = true
		h.maybeClusterCommit(m.Seq)
	case "commit":
		if m.Epoch != h.epoch {
			return
		}
		h.applyCommit(m.Seq)
	case "done":
		if m.Epoch != h.epoch || !h.initiator() {
			return
		}
		h.lineReports[m.From.Cluster] = true
		h.maybeLineDone()
	case "rollback":
		if m.Epoch <= h.epoch {
			return
		}
		h.restore(m.Seq, m.Epoch)
		if h.leader() && src.Cluster != h.id.Cluster {
			// Forward the federation-wide rollback inside the cluster.
			for i := 1; i < h.size; i++ {
				h.send(topology.NodeID{Cluster: h.id.Cluster, Index: i}, m)
			}
		}
	}
}

// OnFailureDetected rolls every cluster back to the last complete line.
func (h *HierCoord) OnFailureDetected(failed topology.NodeID) {
	if h.failed {
		return
	}
	newEpoch := h.epoch + 1
	// Restore the coordinator's second-newest line: its newest may
	// still be forming in other clusters, while anything older might
	// already be pruned elsewhere. With the at-most-one-line spread,
	// every node is guaranteed to hold this one.
	target := h.snaps[0].Seq
	if len(h.snaps) >= 2 {
		target = h.snaps[len(h.snaps)-2].Seq
	}
	cmd := wire{Kind: "rollback", Seq: target, Epoch: newEpoch}
	h.broadcast(cmd)
	for c := 0; c < h.cfg.Clusters; c++ {
		h.countRollback(topology.ClusterID(c))
	}
	h.count("hiercoord.rollbacks", 1)
	h.restore(target, newEpoch)
}

func (h *HierCoord) restore(seq core.SN, epoch core.Epoch) {
	h.clusterInFlight = false
	h.lineInFlight = false
	h.sendQ = nil
	h.inbQ = nil
	var rec *snapshotRec
	for _, s := range h.snaps {
		if s.Seq == seq {
			rec = s
		}
	}
	if rec == nil {
		// Should be unreachable given the one-line spread; falling
		// back to the oldest held line is flagged loudly because the
		// cut is then inconsistent.
		h.count("hiercoord.inconsistent_restore", 1)
		rec = h.snaps[0]
		seq = rec.Seq
	}
	h.app.Restore(rec.State)
	for _, p := range rec.Late {
		h.app.Deliver(h.id, p)
	}
	h.seq = seq
	h.snaps = []*snapshotRec{rec}
	h.epoch = epoch
	h.frozen = false
	h.resendUnacked()
}
