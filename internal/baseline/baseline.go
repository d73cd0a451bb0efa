// Package baseline implements the comparison protocols the paper
// positions HC3I against (§2.2, §6), runnable under the same harness
// and workloads:
//
//   - GlobalCoordinated: one two-phase commit spanning the whole
//     federation — the approach §2.2 rules out because "the large
//     number of nodes and network performance between clusters do not
//     allow a global synchronization".
//   - PessimisticLog: MPICH-V-style message logging ([3]): every
//     message is logged, only the failed node rolls back, but the PWD
//     (piecewise determinism) assumption is required.
//   - HierCoord: the hierarchical *coordinated* protocol of [9]: every
//     cluster checkpoints locally on a federation-wide cadence forming
//     global lines, without communication-induced checkpoints.
//
// Two further baselines are modes of the core protocol itself
// (core.ModeForceAll, core.ModeIndependent) since they share all of its
// machinery.
package baseline

import (
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// snapshotRec is one stored state on a baseline node.
type snapshotRec struct {
	Seq   core.SN
	State any
	Size  int
	At    sim.Time
	// Late holds application messages that crossed this snapshot's
	// line (sent before, received after); re-delivered on restore.
	Late []core.AppPayload
}

// wire wraps baseline payloads so they satisfy core.Msg.
type wire struct {
	Kind    string
	Seq     core.SN
	Epoch   core.Epoch
	From    topology.NodeID
	Dst     topology.NodeID
	Payload core.AppPayload
	SendSeq core.SN
	State   any
	Size    int
	MsgID   uint64
}

// ProtocolMessage marks wire as a protocol message.
func (wire) ProtocolMessage() {}

// unwrap extracts the wire payload from a value or pooled-box message.
func unwrap(msg core.Msg) (wire, bool) {
	switch t := msg.(type) {
	case *core.Box[wire]:
		return t.M, true
	case wire:
		return t, true
	}
	return wire{}, false
}

func (w wire) size() int {
	if w.State != nil {
		return 32 + w.Size
	}
	if w.Kind == "app" {
		return 24 + w.Payload.Size
	}
	return 32
}

// common holds what all baseline nodes share.
type common struct {
	cfg   core.Config
	env   core.Env
	app   core.AppHooks
	stats *sim.Stats // the run's registry: baselines count into it directly
	id    topology.NodeID
	size  int // own cluster size

	failed bool
	epoch  core.Epoch

	// logPeak is the running high-water mark of the node's volatile
	// message log (see LogPeak); updated by each protocol at its log
	// append sites.
	logPeak int

	// wireBoxes recycles this node's outbound message boxes (the harness
	// reclaims a box after the destination's OnMessage returned). wire
	// is a large struct, so boxing one per message was the baselines'
	// dominant allocation site. One box per Send call, even for
	// broadcasts of the same logical message: a box belongs to exactly
	// one in-flight delivery.
	wireBoxes core.Boxes[wire]

	// names is the own cluster's statistic names, rendered once
	// (commit-path counts must not build strings).
	names core.StatNames

	// nodesCache is the lazily built federation node list allNodes
	// returns: the coordinated baselines enumerate it on every commit
	// round, which at wide-federation scale (hundreds of clusters) made
	// the per-call rebuild a dominant allocation site.
	nodesCache []topology.NodeID
}

func newCommon(cfg core.Config, env core.Env, app core.AppHooks, stats *sim.Stats) common {
	return common{
		cfg:   cfg,
		env:   env,
		app:   app,
		stats: stats,
		id:    cfg.ID,
		size:  cfg.ClusterSizes[cfg.ID.Cluster],
		names: core.NewStatNames(cfg.ID.Cluster),
	}
}

// count adds d to the named counter of the run.
func (c *common) count(name string, d uint64) { c.stats.Counter(name).Add(d) }

// countCommit counts one unforced commit of the cluster names names.
func (c *common) countCommit(names *core.StatNames) {
	c.count(names.Of(core.EventCLCCommitted), 1)
	c.count(names.Cluster(core.CommitUnforced), 1)
}

// countRollback counts one rollback of cluster cl.
func (c *common) countRollback(cl topology.ClusterID) {
	names := core.NewStatNames(cl)
	c.count(names.Of(core.EventRollback), 1)
}

// Failed reports whether the node is crashed.
func (c *common) Failed() bool { return c.failed }

// send transmits a control message through a pooled box.
func (c *common) send(dst topology.NodeID, m wire) {
	c.env.Send(dst, m.size(), c.wireBoxes.Wrap(m))
}

// broadcast sends a control message to every other node of the
// federation, in allNodes order, one box per destination.
func (c *common) broadcast(m wire) {
	for _, id := range c.allNodes() {
		if id != c.id {
			c.send(id, m)
		}
	}
}

// sendApp transmits an application message through a pooled box.
func (c *common) sendApp(dst topology.NodeID, m wire) {
	c.env.SendApp(dst, m.size(), c.wireBoxes.Wrap(m))
}

// notePeak folds the current log length into the running high-water
// mark. Log-truncating protocols (snapshots, acks, restarts) only ever
// shrink their live log, so sampling at every append is exact.
func (c *common) notePeak(n int) {
	if n > c.logPeak {
		c.logPeak = n
	}
}

// LogPeak returns the high-water mark of the volatile message log over
// the whole run — unlike LogLen it is not deflated by truncation.
func (c *common) LogPeak() int { return c.logPeak }

// allNodes enumerates every node of the federation. The slice is the
// node's cached copy — callers must not mutate it.
func (c *common) allNodes() []topology.NodeID {
	if c.nodesCache == nil {
		total := 0
		for cl := 0; cl < c.cfg.Clusters; cl++ {
			total += c.cfg.ClusterSizes[cl]
		}
		ids := make([]topology.NodeID, 0, total)
		for cl := 0; cl < c.cfg.Clusters; cl++ {
			for i := 0; i < c.cfg.ClusterSizes[cl]; i++ {
				ids = append(ids, topology.NodeID{Cluster: topology.ClusterID(cl), Index: i})
			}
		}
		c.nodesCache = ids
	}
	return c.nodesCache
}

func (c *common) neighbour() topology.NodeID {
	return topology.NodeID{Cluster: c.id.Cluster, Index: (c.id.Index + 1) % c.size}
}

// sortedIDs returns the message IDs of a send log, ascending (IDs are
// assigned in send order). Go randomizes map iteration, and
// retransmissions must enter the FIFO pipes in the same order on every
// run of a seed.
func sortedIDs[V any](log map[uint64]V) []uint64 {
	ids := make([]uint64, 0, len(log))
	for id := range log {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// coordinated is the freeze-and-snapshot machinery GlobalCoordinated
// and HierCoord share: the committed sequence number (a global
// checkpoint there, a completed line here), the freeze that queues
// application traffic in both directions while a checkpoint forms, the
// stored snapshots with their late-message folds, and the send log that
// stands in for transport-level reliability across restarts. Who
// initiates a checkpoint, how deep snapshots are pruned and where a
// rollback lands stay with each protocol.
type coordinated struct {
	common

	seq    core.SN // newest committed checkpoint as known here
	frozen bool
	sendQ  []core.AppPayloadTo
	inbQ   []wire
	snaps  []*snapshotRec

	// sendLog keeps sent messages until acknowledged: at restore time
	// unacknowledged messages whose send is part of the restored state
	// are retransmitted.
	sendLog   map[uint64]wire
	nextMsgID uint64

	// The state captured at prepare, stored at commit.
	provState any
	provSize  int

	keyResent string // pre-rendered "<protocol>.resent" stat key
}

func newCoordinated(cfg core.Config, env core.Env, app core.AppHooks, stats *sim.Stats, statPrefix string) coordinated {
	c := coordinated{
		common:    newCommon(cfg, env, app, stats),
		sendLog:   make(map[uint64]wire),
		keyResent: statPrefix + ".resent",
	}
	state, size := app.Snapshot()
	c.seq = 1
	c.snaps = append(c.snaps, &snapshotRec{Seq: 1, State: state, Size: size, At: env.Now()})
	return c
}

// initiator reports whether this node paces the federation's
// checkpoints (cluster 0, node 0).
func (c *coordinated) initiator() bool { return c.id.Cluster == 0 && c.id.Index == 0 }

// Start arms the checkpoint timer on the initiator.
func (c *coordinated) Start() {
	if c.initiator() {
		c.env.SetTimer(core.TimerCLC, c.cfg.CLCPeriod)
	}
}

// SN returns the newest committed checkpoint sequence number (global
// checkpoint or completed line).
func (c *coordinated) SN() core.SN { return c.seq }

// StoredCount returns the stored snapshots.
func (c *coordinated) StoredCount() int { return len(c.snaps) }

// LogLen returns the unacknowledged entries of the volatile send log
// (the scenario matrix's log high-water quantity).
func (c *coordinated) LogLen() int { return len(c.sendLog) }

// Fail crashes the node.
func (c *coordinated) Fail() { c.failed = true }

// restart revives the node's shared state. Snapshots survive: the
// neighbour copy is modelled implicitly in these baselines.
func (c *coordinated) restart() {
	c.failed = false
	c.frozen = false
	c.sendQ = nil
	c.inbQ = nil
	c.sendLog = make(map[uint64]wire)
}

// Send transmits or queues an application payload; messages carry the
// sender's sequence number so stragglers fold into the snapshots they
// crossed.
func (c *coordinated) Send(dst topology.NodeID, p core.AppPayload) {
	if c.failed {
		return
	}
	if c.frozen {
		c.sendQ = append(c.sendQ, core.AppPayloadTo{Dst: dst, Payload: p})
		return
	}
	c.nextMsgID++
	m := wire{Kind: "app", Epoch: c.epoch, From: c.id, Dst: dst, Payload: p, SendSeq: c.seq, MsgID: c.nextMsgID}
	c.sendLog[m.MsgID] = m
	c.notePeak(len(c.sendLog))
	c.sendApp(dst, m)
}

// prepare freezes the node and captures the state checkpoint seq will
// store. Stable storage: the state is replicated to the neighbour, like
// HC3I's §3.1 (priced, fire-and-forget in these baselines).
func (c *coordinated) prepare(seq core.SN) {
	c.frozen = true
	c.provState, c.provSize = c.app.Snapshot()
	if c.size > 1 {
		rep := wire{Kind: "replica", From: c.id, Seq: seq, State: c.provState, Size: c.provSize}
		c.send(c.neighbour(), rep)
	}
}

// receiveApp handles an inbound application message: dropped when it
// belongs to an aborted execution (replay regenerates it), queued while
// frozen, delivered otherwise.
func (c *coordinated) receiveApp(m wire) {
	if m.Epoch < c.epoch && m.SendSeq >= c.seq {
		return
	}
	if c.frozen {
		c.inbQ = append(c.inbQ, m)
		return
	}
	c.deliver(m)
}

func (c *coordinated) deliver(m wire) {
	if m.SendSeq < c.seq {
		// Crossed one or more checkpoints: fold into those snapshots.
		for _, s := range c.snaps {
			if s.Seq > m.SendSeq && s.Seq <= c.seq {
				s.Late = append(s.Late, m.Payload)
			}
		}
	}
	c.app.Deliver(m.From, m.Payload)
	ack := wire{Kind: "app-ack", From: c.id, MsgID: m.MsgID}
	c.send(m.From, ack)
}

// drain releases what a freeze queued, sends first.
func (c *coordinated) drain() {
	sq := c.sendQ
	c.sendQ = nil
	for _, s := range sq {
		c.Send(s.Dst, s.Payload)
	}
	iq := c.inbQ
	c.inbQ = nil
	for _, m := range iq {
		if m.Epoch == c.epoch {
			c.deliver(m)
		}
	}
}

// resendUnacked gives transport-level reliability across a rollback:
// every unacknowledged message whose send is part of the restored state
// is retransmitted in send order; newer sends are forgotten, the
// application's re-execution regenerates them.
func (c *coordinated) resendUnacked() {
	for id, m := range c.sendLog {
		if m.SendSeq >= c.seq {
			delete(c.sendLog, id)
		}
	}
	for _, id := range sortedIDs(c.sendLog) {
		m := c.sendLog[id]
		m.Epoch = c.epoch
		c.sendLog[id] = m
		c.sendApp(m.Dst, m)
		c.count(c.keyResent, 1)
	}
}
