package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// ProtocolMode selects the inter-cluster checkpointing strategy. The
// non-default modes exist as baselines for the paper's design
// discussion (§3.2 argues forcing on every message is wasteful; §2.2
// argues independent checkpointing dominos).
type ProtocolMode int

// Protocol modes.
const (
	// ModeHC3I is the paper's protocol: force a CLC only when a
	// message raises a DDV entry.
	ModeHC3I ProtocolMode = iota
	// ModeForceAll forces a CLC before delivering *every*
	// inter-cluster message (the strawman of Figure 4).
	ModeForceAll
	// ModeIndependent never forces: clusters checkpoint on their
	// timers only, dependencies are tracked lazily (merged at each
	// commit), and a rollback restores the newest checkpoint that does
	// not depend on the alerted state — which can domino to the
	// beginning of the application.
	ModeIndependent
)

// String names the mode.
func (m ProtocolMode) String() string {
	switch m {
	case ModeHC3I:
		return "hc3i"
	case ModeForceAll:
		return "force-all"
	case ModeIndependent:
		return "independent"
	default:
		return fmt.Sprintf("ProtocolMode(%d)", int(m))
	}
}

// Config parameterizes one protocol node. The per-cluster timer values
// come from the paper's "timers file"; the structural fields from its
// "topology file".
type Config struct {
	// Mode selects the inter-cluster strategy (default ModeHC3I).
	Mode ProtocolMode

	ID           topology.NodeID
	Clusters     int   // number of clusters in the federation
	ClusterSizes []int // nodes per cluster

	// CLCPeriod is the delay between unforced CLCs of this node's
	// cluster (sim.Forever disables unforced CLCs, as in Figure 7).
	CLCPeriod sim.Duration
	// GCPeriod is the garbage-collection period; only meaningful on
	// the GC initiator (sim.Forever disables GC).
	GCPeriod sim.Duration
	// GCInitiator marks the single node that runs the centralized
	// garbage collector (§3.5).
	GCInitiator bool
	// RingGC switches the garbage collector to the distributed ring
	// variant (§7 future work).
	RingGC bool
	// GCMemoryThreshold, when positive, makes a node demand an
	// immediate collection from the initiator once its checkpoint
	// memory (states, replicas, logs) exceeds this many bytes — the
	// "when a node memory saturates" trigger of §3.5.
	GCMemoryThreshold uint64
	// Transitive enables transitive dependency tracking: inter-cluster
	// messages piggyback the whole DDV instead of just the SN (§7).
	Transitive bool
	// Replicas is the number of neighbour nodes each local checkpoint
	// part is replicated to (§3.1 uses 1; §7 suggests making it
	// configurable to tolerate more simultaneous faults per cluster).
	Replicas int
}

// validate panics on malformed configurations: these are programming
// errors of the harness, not runtime conditions.
func (c Config) validate() {
	if c.Clusters != len(c.ClusterSizes) {
		panic(fmt.Sprintf("core: %d clusters but %d sizes", c.Clusters, len(c.ClusterSizes)))
	}
	if int(c.ID.Cluster) >= c.Clusters || c.ID.Cluster < 0 {
		panic(fmt.Sprintf("core: node %v outside federation", c.ID))
	}
	if c.ID.Index < 0 || c.ID.Index >= c.ClusterSizes[c.ID.Cluster] {
		panic(fmt.Sprintf("core: node %v outside its cluster", c.ID))
	}
	if c.Replicas < 0 || c.Replicas >= c.ClusterSizes[c.ID.Cluster] {
		panic(fmt.Sprintf("core: %d replicas impossible in a %d-node cluster",
			c.Replicas, c.ClusterSizes[c.ID.Cluster]))
	}
}

// clcRecord is this node's local part of one stored cluster-level
// checkpoint; the cluster-wide metadata (SN, DDV) of record i is entry
// i of Node.chain. Its two flags sit together at the end, which keeps
// it at 64 bytes: a block of Node.clcs holds 1024 records.
type clcRecord struct {
	at        sim.Time
	state     any
	stateSize int
	// lateLog holds intra-cluster application messages that crossed
	// this checkpoint's line (sent before it, received after it); they
	// are re-delivered on restore so the checkpoint stays consistent
	// (no lost in-transit messages, §2.2).
	lateLog []inbound
	forced  bool
	// remote marks a record whose local state was lost in a crash and
	// lives only on the neighbour replicas; restoring it requires a
	// RecoverStateReq round-trip.
	remote bool
}

// logEntry is one optimistically logged inter-cluster message (§3.3).
type logEntry struct {
	msgID      uint64
	dst        topology.NodeID
	dstCluster topology.ClusterID
	payload    AppPayload
	// piggySN is the sender cluster's SN at the send: piggybacked on the
	// wire, and what a rollback prunes by (a send below the restored SN
	// is part of the restored state).
	piggySN SN
	// piggy is the transitive piggyback the send carried (zero unless
	// transitive): the node's shared vector of that DDV generation (see
	// Node.piggy), which the entry's mirror and a recovery answer share
	// too, and which a resend carries.
	piggy SparseDDV
	acked bool
	ackSN SN
}

// storedBytes is the record's share of StorageBytes: the local state
// (unless it lives only on the neighbour replicas) plus the late
// messages folded into its channel state.
func (r *clcRecord) storedBytes() uint64 {
	var total uint64
	if !r.remote {
		total = uint64(r.stateSize)
	}
	for _, l := range r.lateLog {
		total += uint64(l.msg.Payload.Size)
	}
	return total
}

// mirrorLog is one neighbour's mirrored message log (see
// Node.mirrorLogs). ids holds the MsgID of every entry, so a
// re-replicated duplicate is refused without scanning.
type mirrorLog struct {
	entries sim.Blocks[LogMirror]
	ids     map[uint64]struct{}
}

// filter keeps the entries keep accepts, in order, forgets the MsgIDs
// of the rest and returns the payload bytes it dropped.
func (ml *mirrorLog) filter(keep func(*LogMirror) bool) (dropped uint64) {
	ml.entries.Filter(func(e *LogMirror) bool {
		if keep(e) {
			return true
		}
		dropped += uint64(e.Payload.Size)
		delete(ml.ids, e.MsgID)
		return false
	})
	return dropped
}

// ownerReplicas is one neighbour's checkpoint states held in this
// node's memory (see Node.replicas), strictly increasing in Seq.
type ownerReplicas struct {
	owner topology.NodeID
	reps  sim.Blocks[Replica]
}

// searchReplica returns the position of the first replica in reps with
// Seq >= seq, and whether that replica's Seq is seq; reps may be nil.
func searchReplica(reps *sim.Blocks[Replica], seq SN) (int, bool) {
	if reps == nil {
		return 0, false
	}
	lo, hi := 0, reps.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if reps.At(mid).Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < reps.Len() && reps.At(lo).Seq == seq
}

// inbound is an application message awaiting processing (frozen during
// a 2PC, deferred to a future epoch, or held for a forced CLC).
type inbound struct {
	src topology.NodeID
	msg AppMsg
	// heldAt is the cluster SN when the message was held for an
	// unconditional forced CLC (ModeForceAll): it is deliverable once
	// the SN has advanced past it.
	heldAt SN
}

// cpPhase is the participant-side two-phase-commit state.
type cpPhase int

const (
	cpIdle     cpPhase = iota
	cpPrepared         // snapshot taken, waiting for commit
)

// Node is the HC3I protocol engine of one federation node. All methods
// must be invoked sequentially by the harness.
type Node struct {
	cfg Config
	env Env
	app AppHooks

	id      topology.NodeID
	cluster topology.ClusterID
	size    int // nodes in own cluster

	failed    bool
	lostState bool // restarted after a crash; volatile memory gone

	sn    SN
	epoch Epoch
	ddv   DDV
	// ddvGen counts mutations of ddv (any site that can change an
	// entry bumps it); the piggyback encoder and the shared sparse
	// piggyback (piggy) use it to skip O(width) work while the vector
	// is unchanged. Starts at 1; 0 means "never" on consumers.
	ddvGen uint64
	// commitBase is the dense vector of the newest committed CLC — the
	// base every delta-encoded CLCCommit patches, and the one stored
	// vector the chain does not have to be walked for. Invariant: equal
	// on all non-failed nodes of the cluster outside commit windows, and
	// re-synced from the restored record on every rollback/recovery.
	commitBase DDV
	// epochs holds, per cluster that rolled back, the latest known
	// epoch and the most recent rollback alert: a message one epoch
	// behind whose SendSN is below the alerted SN was sent *before* the
	// rollback point — its send is part of the sender's restored state,
	// so the content is valid even though the epoch tag is stale.
	epochs epochTable

	// ---- two-phase commit (participant side) ----
	phase   cpPhase
	prepSeq SN
	// provisional is the record the prepare captured, valid while phase
	// is cpPrepared; the commit stores it by value.
	provisional  clcRecord
	replWanted   int
	replGot      int
	frozenSends  bool
	frozenDelivs bool

	// ---- two-phase commit (leader side) ----
	inFlight       bool
	inFlightForced bool
	inFlightSeq    SN
	inFlightSince  sim.Time
	ackedNodes     []bool // reusable per-index ack flags, reset at startCLC
	ackedCount     int
	// acked accumulates the acks' pairs by element-wise max (maxMerge:
	// order-independent, so merging on arrival equals merging every
	// ack at commit); emptied at commit and abort.
	acked []DDVPair
	// pending holds the forced-CLC demands not yet committed, one pair
	// per raised index at its largest SN (maxMerge); emptied once a
	// commit covers it, and by every rollback and abort.
	pending       []DDVPair
	pendingAlways bool // an unconditional force is pending (ModeForceAll)

	// ---- queues ----
	// Drains and rollbacks empty the queues in place (clear + [:0]), so
	// their backing arrays serve the next checkpoint round.
	sendQueue    []AppPayloadTo // app sends issued while frozen
	inboundQueue []inbound      // deliveries deferred (freeze / future epoch)
	heldInter    []inbound      // inter-cluster messages awaiting a forced CLC
	// heldSpare is the second buffer reexamineHeld swaps with heldInter:
	// the messages it re-holds go to the spare while it walks the other.
	heldSpare []inbound

	// ---- storage ----
	// clcs and chain are the stored CLCs, oldest first and strictly
	// increasing in SN — record i's local state and its cluster-wide
	// metadata: commits append SN+1, GC drops a prefix, a rollback a
	// suffix, and recovery rebuilds both from a holder's chain. Mutated
	// only through appendCLC/dropCLCsBelow/truncateCLCsAfter/resetCLCs/
	// logLate, which keep the two the same length. Records are stored by
	// value, in blocks (see sim.Blocks), and zeroed when dropped.
	clcs  sim.Blocks[clcRecord]
	chain Chain
	// replicas holds neighbours' checkpoint states, one SN-ordered list
	// per owner. A holder serves only its cfg.Replicas ring predecessors,
	// so owners are found by a linear scan; commits append, GC drops a
	// prefix of each list, a rollback a suffix. Mutated only through
	// storeReplica/dropReplicasBelow/dropReplicasAbove/resetReplicas,
	// which keep replicaBytes exact.
	replicas []ownerReplicas
	// mirrorLogs holds neighbours' message-log mirrors (stable storage
	// for §3.3's volatile log), keyed by the owning node.
	mirrorLogs map[topology.NodeID]*mirrorLog
	// trimKeep is onLogTrim's reusable set of the MsgIDs a trim keeps;
	// empty between trims.
	trimKeep map[uint64]struct{}
	// clcBytes/replicaBytes/logBytes/mirrorBytes are the running byte
	// totals of the four stores StorageBytes sums, kept exact by the
	// helpers that own each store's mutations: StorageBytes runs on
	// every commit, so it must not grow with the history stored between
	// two garbage collections.
	clcBytes     uint64
	replicaBytes uint64
	logBytes     uint64
	mirrorBytes  uint64

	// ---- message log ----
	// log is mutated only through appendLog/filterLog/resetLog, which
	// keep logBytes, logIndex and logPeak in step with it.
	log []*logEntry
	// logSlab backs the log entries; an entry is zeroed when the log
	// drops it.
	logSlab Slab[logEntry]
	// logIndex finds a log entry by MsgID for onAppAck. Allocated by the
	// first append: most nodes of a wide federation never log.
	logIndex  map[uint64]*logEntry
	logPeak   int // running high-water mark of len(log) over the run
	nextMsgID uint64

	// ---- rollback ----
	// anchorPending is set by every restore and cleared by the next
	// commit: the first covered inter-cluster delivery after a restore
	// forces one unconditional "anchor" CLC before delivering, so the
	// delivery lands above the restored checkpoint in SN order. This
	// keeps the cascadeMemo suppression sound: a repeated alert for
	// the same rollback target is a no-op only while n.sn still equals
	// the target — any post-restore delivery advances it via the
	// anchor, so a *new* rollback of the sender (same SN, fresh epoch)
	// correctly re-rolls this cluster and erases the delivery instead
	// of being suppressed as a duplicate. Found by the invariant
	// oracle's orphan obligations under the churn pattern.
	anchorPending bool
	rbActive      bool // this node coordinates an ongoing cluster rollback
	rbSeq         SN
	rbSince       sim.Time
	rbEpoch       Epoch
	rbAcks        map[int]bool
	deferredAlert []RollbackAlert
	recoverWait   *recoverPending // restarted node waiting for its replica
	// cascadeMemo records, per alerting cluster, the last alert SN this
	// leader acted on and the checkpoint it restored. It is the live
	// counterpart of SimulateFailure's index monotonicity: a repeated
	// alert whose target is the checkpoint the cluster already sits on
	// is suppressed, which is what terminates mutual alert cascades
	// (the restored forced CLC's recorded DDV still names the
	// dependency, so the §3.4 test alone would fire forever).
	cascadeMemo map[topology.ClusterID]cascadeRecord

	// ---- garbage collection (initiator side) ----
	gcRound uint64
	// gcReports holds the open round's reports, cluster c's in slot c
	// (reused across rounds); gcHave counts the slots this round filled
	// and is 0 while no round is gathering.
	gcReports     []GCReport
	gcHave        int
	alertsSeen    uint64
	gcAlertsMark  uint64
	gcLastStart   sim.Time
	gcStartedOnce bool
	gcDemanded    bool       // a memory-pressure demand is outstanding here
	gcScratch     *gcScratch // the initiator's, allocated by its first round

	// vecScratch is a width-sized scratch, allocated by its first use:
	// a delta-wire leader raises the vector of the commit it is about to
	// broadcast in it (ackFrom; only the pairs that differ from
	// commitBase leave it), and a pipe encoder rebuilds the last vector
	// shipped in it while deltas are in flight (DeltaCodec.Encode).
	vecScratch DDV
	// pairArena backs every DDVPair slice that escapes on a wire
	// message, into a stored record or into a shared piggyback;
	// pairScratch is the reusable build buffer (valid until the next
	// pair-building call, cloned through pairArena before escaping).
	pairArena   PairArena
	pairScratch []DDVPair
	// recvDirty tracks the entries this node raised above commitBase
	// by local receipts (ModeIndependent's lazy tracking): exactly the
	// pairs a delta prepare-ack must carry.
	recvDirty DirtySet
	// commitScratch is the per-event dirty-set scratch for building
	// commit pairs.
	commitScratch DirtySet
	// gcScanDirty tracks the entries where ddv may differ from the
	// newest stored CLC's vector (commitBase), so GC reports diff
	// O(dirty) instead of O(width). Valid only while gcScanValid: every
	// HC3I commit re-establishes ddv == commitBase and resets the set,
	// every CIC receipt that raises ddv adds its index, and every path
	// that lowers ddv or rewrites the stored chain (rollback, recovery,
	// restart) invalidates — makeGCReport then falls back to the
	// chunked full-width diff and the next commit revalidates.
	gcScanDirty DirtySet
	gcScanValid bool
	// piggyCodecs is the env's per-pipe delta codec registry when it
	// offers one (PiggyCodecs); nil means whole-vector piggybacks. Each
	// codec carries the cluster-shared clean-exam cursor
	// (DeltaCodec.seen); resetPiggyExam discards the cursors whenever
	// this node's DDV may have decreased (rollback, recovery), forcing a
	// full-width re-examination per pipe.
	piggyCodecs PiggyCodecs
	// lastPiggy is the sparse form of ddv at generation lastPiggyGen:
	// the log entries, mirrors and piggyback events of all sends
	// between two DDV changes share one immutable vector. Built by the
	// first transitive inter-cluster send of a generation.
	lastPiggy    SparseDDV
	lastPiggyGen uint64
	// replTargets is the fixed ring of neighbour nodes holding this
	// node's checkpoint parts, computed once (the per-prepare slice
	// build showed up as a top allocation site).
	replTargets []topology.NodeID
	// peerIDs is the other nodes of the cluster, index order, built by
	// the first cluster broadcast (see peers).
	peerIDs []topology.NodeID
	// boxes is the env's message-box recycler when it offers one
	// (BoxPool); nil means plain value sends.
	boxes BoxPool
	// mirrors is the env's LogMirror box recycler when it offers one
	// (MirrorBoxPool); nil means mirrors go through sendCtl.
	mirrors MirrorBoxPool
	// reclaims records that the env reclaims message boxes
	// (BoxReclaimer): control messages then travel in boxes from ctl.
	reclaims bool
	ctl      ctlBoxes
	// sink is the env's event sink when it offers one (EventSink); nil
	// means trace points build nothing — one nil check per site.
	sink EventSink
	// stab is the application's stability hook when it offers one
	// (Stabilizer); nil means commits don't notify the application.
	stab Stabilizer
}

// AppPayloadTo pairs a payload with its destination; used for the
// frozen-send queue and by harnesses that batch application sends.
type AppPayloadTo struct {
	Dst     topology.NodeID
	Payload AppPayload
}

// NewNode builds a protocol node. The application's initial state is
// snapshotted immediately as the first CLC ("each cluster stores a
// first CLC which is the beginning of the application", §4). That
// checkpoint carries SN 1, exactly as in the paper's sample execution
// where cluster 1 piggybacks SN 1 on its very first message: a DDV
// entry of 0 then unambiguously means "no dependency" ("0 if none",
// §3.2), the first message from any cluster forces a CLC at the
// receiver (m1 in the sample), and a rollback alert from a cluster that
// restored its initial state only drags back clusters that actually
// received something from it. Starting at 0 instead would make the
// rollback test "entry >= alerted SN" degenerate (0 >= 0 everywhere)
// and a pre-first-checkpoint failure would cascade forever.
func NewNode(cfg Config, env Env, app AppHooks) *Node {
	cfg.validate()
	n := &Node{
		cfg:     cfg,
		env:     env,
		app:     app,
		id:      cfg.ID,
		cluster: cfg.ID.Cluster,
		size:    cfg.ClusterSizes[cfg.ID.Cluster],
		sn:      1,
		ddv:     NewDDV(cfg.Clusters),
		// A node mirrors the logs of its cfg.Replicas ring predecessors.
		mirrorLogs: make(map[topology.NodeID]*mirrorLog, cfg.Replicas),
		// cascadeMemo stays unsized: it only ever holds the few clusters
		// that alerted a rollback, so a width-sized hint wastes ~50KB of
		// empty buckets per node on wide federations.
		cascadeMemo: make(map[topology.ClusterID]cascadeRecord),
		ackedNodes:  make([]bool, cfg.ClusterSizes[cfg.ID.Cluster]),
	}
	n.boxes, _ = env.(BoxPool)
	n.mirrors, _ = env.(MirrorBoxPool)
	_, n.reclaims = env.(BoxReclaimer)
	n.sink, _ = env.(EventSink)
	n.emit(Event{Kind: EventNodeStart, Mode: cfg.Mode})
	n.stab, _ = app.(Stabilizer)
	n.ddvGen = 1
	n.commitBase = NewDDV(cfg.Clusters)
	n.recvDirty.Init(cfg.Clusters)
	n.commitScratch.Init(cfg.Clusters)
	n.gcScanDirty.Init(cfg.Clusters)
	n.pairScratch = make([]DDVPair, 0, 8)
	n.piggyCodecs, _ = env.(PiggyCodecs)
	n.replTargets = make([]topology.NodeID, 0, cfg.Replicas)
	for r := 1; r <= cfg.Replicas; r++ {
		n.replTargets = append(n.replTargets,
			topology.NodeID{Cluster: n.cluster, Index: (n.id.Index + r) % n.size})
	}
	n.ddv[n.cluster] = 1
	n.commitBase.CopyFrom(n.ddv)
	state, size := app.Snapshot()
	n.chain.Init(1, n.ddv)
	n.clcs.Append(clcRecord{at: env.Now(), state: state, stateSize: size})
	n.clcBytes = n.clcs.At(0).storedBytes()
	// ddv equals the initial CLC's vector: the incremental GC-report
	// scan starts valid (see gcScanDirty).
	n.gcScanValid = true
	return n
}

// Start arms the node's timers; the harness calls it once the whole
// federation is constructed.
func (n *Node) Start() {
	if n.leader() {
		n.env.SetTimer(TimerCLC, n.cfg.CLCPeriod)
		n.recordStoredStat()
	}
	if n.cfg.GCInitiator {
		n.env.SetTimer(TimerGC, n.cfg.GCPeriod)
	}
}

// ---- identity helpers ----

func (n *Node) leader() bool { return n.id.Index == 0 }

func (n *Node) leaderOf(c topology.ClusterID) topology.NodeID {
	return topology.NodeID{Cluster: c, Index: 0}
}

// replicaTargets returns the neighbour nodes that store this node's
// checkpoint parts: the next cfg.Replicas indices, ring order. The
// slice is the node's cached copy — callers must not mutate it.
func (n *Node) replicaTargets() []topology.NodeID { return n.replTargets }

// peers returns the other nodes of this node's cluster in index order,
// built on first use: most participants broadcast only to coordinate a
// rollback. The slice is the node's cached copy — callers must not
// mutate it.
func (n *Node) peers() []topology.NodeID {
	if n.peerIDs == nil {
		n.peerIDs = make([]topology.NodeID, 0, n.size-1)
		for i := 0; i < n.size; i++ {
			if i != n.id.Index {
				n.peerIDs = append(n.peerIDs, topology.NodeID{Cluster: n.cluster, Index: i})
			}
		}
	}
	return n.peerIDs
}

// holderFor returns the first replica holder of this node's state.
func (n *Node) holderFor() topology.NodeID {
	return topology.NodeID{Cluster: n.cluster, Index: (n.id.Index + 1) % n.size}
}

// ---- accessors (tests, statistics, invariant checking) ----

// ID returns the node's identity.
func (n *Node) ID() topology.NodeID { return n.id }

// SN returns the committed cluster sequence number as seen here.
func (n *Node) SN() SN { return n.sn }

// CurrentEpoch returns the node's rollback epoch.
func (n *Node) CurrentEpoch() Epoch { return n.epoch }

// DDVSnapshot returns a copy of the node's current DDV, which the
// caller owns.
func (n *Node) DDVSnapshot() DDV { return n.ddv.Clone() }

// SameDDV reports whether n and o hold equal DDVs, copying neither.
func (n *Node) SameDDV(o *Node) bool { return n.ddv.Equal(o.ddv) }

// ddvChanged records a mutation of n.ddv (or of an entry of it): the
// piggyback encoder and the shared sparse piggyback key off the
// generation to skip O(width) work while the vector is unchanged.
func (n *Node) ddvChanged() { n.ddvGen++ }

// piggyVecID identifies the current DDV's content for the shared
// per-pipe piggyback encoder, which is written to by *every* node of
// this cluster: a per-node mutation counter would collide across
// nodes, so the identity must be well-defined pipe-wide. In
// ModeHC3I/ModeForceAll the DDV is a pure function of (epoch, sn) —
// application sends are frozen throughout commit and rollback windows,
// so a sending node always holds the committed vector that pair names.
// Under ModeIndependent vectors are per-node (lazy receipts), so the
// identity is qualified by the node's index; a node handover on the
// pipe then re-runs one O(width) diff, which usually finds nothing.
// Zero is never returned (sn starts at 1): the encoder treats zero as
// "unknown".
func (n *Node) piggyVecID() uint64 {
	if n.cfg.Mode == ModeIndependent {
		return 1<<63 | uint64(n.id.Index)<<40 | (n.ddvGen & (1<<40 - 1))
	}
	return uint64(n.epoch)<<32 | uint64(n.sn)
}

// piggy returns the current DDV in sparse form, shared by every
// transitive send made while the vector is unchanged: at most one
// O(width) scan per DDV generation, and pairs cut from the pair arena
// instead of a dense copy. The vector is immutable once shared: log
// entries, their mirrors, codec-free sends and resends (AppMsg.Piggy),
// recovery answers and an event sink's EventPiggySend only read it.
func (n *Node) piggy() SparseDDV {
	if n.lastPiggyGen != n.ddvGen {
		n.lastPiggy = sparseOf(n.ddv, &n.pairArena)
		n.lastPiggyGen = n.ddvGen
	}
	return n.lastPiggy
}

// StoredCount returns how many CLCs this node currently stores.
func (n *Node) StoredCount() int { return n.clcs.Len() }

// LogLen returns the number of logged inter-cluster messages.
func (n *Node) LogLen() int { return len(n.log) }

// LogPeak returns the running high-water mark of the volatile message
// log over the whole run — unlike LogLen it is not deflated by GC
// trims, rollback pruning or crashes.
func (n *Node) LogPeak() int { return n.logPeak }

// ReplicaCount returns the neighbour states held in this node's memory.
func (n *Node) ReplicaCount() int {
	count := 0
	for _, l := range n.replicas {
		count += l.reps.Len()
	}
	return count
}

// StorageBytes approximates the volatile memory this node devotes to
// fault tolerance: its own checkpoint states, the neighbour replicas it
// holds, its message log and the mirrored logs — the footprint §3.5's
// garbage collection exists to bound. It is the sum of four running
// totals, constant-time however much history is stored.
func (n *Node) StorageBytes() uint64 {
	return n.clcBytes + n.replicaBytes + n.logBytes + n.mirrorBytes
}

// appendCLC stores rec as the newest CLC: sequence number sn, committed
// with pairs (what changed since the newest stored record; retained).
func (n *Node) appendCLC(rec clcRecord, sn SN, pairs []DDVPair) {
	n.chain.Append(sn, pairs)
	n.clcs.Append(rec)
	n.clcBytes += rec.storedBytes()
}

// dropCLCsBelow discards the stored CLCs with SN < threshold (a prefix).
func (n *Node) dropCLCsBelow(threshold SN) {
	cut := n.chain.DropBelow(threshold, &n.pairArena)
	for i := 0; i < cut; i++ {
		n.clcBytes -= n.clcs.At(i).storedBytes()
	}
	n.clcs.DropFront(cut)
}

// truncateCLCsAfter discards the stored CLCs with SN > sn (a suffix).
func (n *Node) truncateCLCsAfter(sn SN) {
	n.chain.TruncateAfter(sn)
	keep := n.chain.Len()
	for i := keep; i < n.clcs.Len(); i++ {
		n.clcBytes -= n.clcs.At(i).storedBytes()
	}
	n.clcs.Truncate(keep)
}

// resetCLCs empties the stored-CLC list.
func (n *Node) resetCLCs() {
	n.chain.TruncateAfter(0)
	n.clcs.Truncate(0)
	n.clcBytes = 0
}

// logLate folds a late intra-cluster message into rec's channel state.
func (n *Node) logLate(rec *clcRecord, in inbound) {
	rec.lateLog = append(rec.lateLog, in)
	n.clcBytes += uint64(in.msg.Payload.Size)
}

// appendLog adds e to the message log.
func (n *Node) appendLog(e *logEntry) {
	n.log = append(n.log, e)
	n.logBytes += uint64(e.payload.Size)
	if n.logIndex == nil {
		n.logIndex = make(map[uint64]*logEntry)
	}
	n.logIndex[e.msgID] = e
	if len(n.log) > n.logPeak {
		n.logPeak = len(n.log)
	}
}

// filterLog keeps the log entries keep accepts, in order.
func (n *Node) filterLog(keep func(*logEntry) bool) {
	kept := n.log[:0]
	for _, e := range n.log {
		if keep(e) {
			kept = append(kept, e)
		} else {
			n.logBytes -= uint64(e.payload.Size)
			delete(n.logIndex, e.msgID)
			*e = logEntry{}
		}
	}
	clear(n.log[len(kept):])
	n.log = kept
}

// resetLog empties the message log.
func (n *Node) resetLog() {
	for _, e := range n.log {
		*e = logEntry{}
	}
	clear(n.log)
	n.log = n.log[:0]
	n.logBytes = 0
	clear(n.logIndex)
}

// replicaList returns the store's list for owner, nil when it holds
// none.
func (n *Node) replicaList(owner topology.NodeID) *ownerReplicas {
	for i := range n.replicas {
		if n.replicas[i].owner == owner {
			return &n.replicas[i]
		}
	}
	return nil
}

// replicasOf returns the SN-ordered replicas held for owner (nil when
// none). The list is the store's own — callers must not mutate it.
func (n *Node) replicasOf(owner topology.NodeID) *sim.Blocks[Replica] {
	if l := n.replicaList(owner); l != nil {
		return &l.reps
	}
	return nil
}

// storeReplica installs (or overwrites) a neighbour state, keeping the
// running byte total exact. A commit's replica is the owner's newest and
// appends; an out-of-order one (re-replication, a straggler from before
// a rollback) is placed by binary search.
func (n *Node) storeReplica(r Replica) {
	l := n.replicaList(r.Owner)
	if l == nil {
		n.replicas = append(n.replicas, ownerReplicas{owner: r.Owner})
		l = &n.replicas[len(n.replicas)-1]
	}
	n.replicaBytes += uint64(r.Size)
	if last := l.reps.Len() - 1; last < 0 || l.reps.At(last).Seq < r.Seq {
		l.reps.Append(r)
		return
	}
	i, found := searchReplica(&l.reps, r.Seq)
	if found {
		p := l.reps.At(i)
		n.replicaBytes -= uint64(p.Size)
		*p = r
		return
	}
	l.reps.Insert(i, r)
}

// dropReplicasBelow discards every held replica with Seq < threshold: a
// prefix of each owner's list.
func (n *Node) dropReplicasBelow(threshold SN) {
	for i := range n.replicas {
		l := &n.replicas[i]
		cut, _ := searchReplica(&l.reps, threshold)
		for j := 0; j < cut; j++ {
			n.replicaBytes -= uint64(l.reps.At(j).Size)
		}
		l.reps.DropFront(cut)
	}
}

// dropReplicasAbove discards every held replica with Seq > sn: a suffix
// of each owner's list.
func (n *Node) dropReplicasAbove(sn SN) {
	for i := range n.replicas {
		l := &n.replicas[i]
		keep, _ := searchReplica(&l.reps, sn+1)
		for j := keep; j < l.reps.Len(); j++ {
			n.replicaBytes -= uint64(l.reps.At(j).Size)
		}
		l.reps.Truncate(keep)
	}
}

// resetReplicas empties the replica store.
func (n *Node) resetReplicas() {
	clear(n.replicas)
	n.replicas = n.replicas[:0]
	n.replicaBytes = 0
}

// Failed reports whether the node is crashed.
func (n *Node) Failed() bool { return n.failed }

// LostState reports whether the node restarted after a crash and has
// not yet recovered its state from the replica holders.
func (n *Node) LostState() bool { return n.lostState }

// Frozen reports whether application traffic is currently frozen by an
// in-progress 2PC (test hook).
func (n *Node) Frozen() bool { return n.frozenSends }

// SeedReplica installs a checkpoint replica directly (used only at
// bootstrap to pre-distribute the initial checkpoint).
func (n *Node) SeedReplica(r Replica) { n.storeReplica(r) }

// InitialReplica returns the Replica record of this node's initial
// checkpoint, for bootstrap seeding.
func (n *Node) InitialReplica() Replica {
	r0 := n.clcs.At(0)
	return Replica{Seq: n.chain.Recs[0].SN, Owner: n.id, State: r0.state, Size: r0.stateSize}
}

// ReplicaTargets lists the neighbours that hold this node's checkpoint
// parts; harnesses use it to pre-distribute the initial checkpoint.
func (n *Node) ReplicaTargets() []topology.NodeID {
	return append([]topology.NodeID(nil), n.replTargets...)
}

// SeedMsgID raises the node's message-identity counter to at least
// base. The protocol deduplicates and acks by MsgID, and a node that
// restarts as a fresh OS process would otherwise count from zero
// again — colliding with pre-crash identities still alive in mirrored
// logs and in flight. A live runtime seeds each incarnation with a
// strictly increasing base (e.g. the boot time in nanoseconds); the
// in-process simulator never needs it because its Node objects keep
// their counters across Restart.
func (n *Node) SeedMsgID(base uint64) {
	if base > n.nextMsgID {
		n.nextMsgID = base
	}
}

// ---- lifecycle ----

// Fail crashes the node (fail-stop): it stops reacting to anything.
// The harness must also cut its network traffic.
func (n *Node) Fail() {
	n.failed = true
	n.emit(Event{Kind: EventFailed})
}

// Restart revives a crashed node with empty volatile memory. It waits
// passively for its cluster's RollbackCmd, then recovers its state from
// its replica holder.
func (n *Node) Restart() {
	n.failed = false
	n.lostState = true
	n.sn = 0
	n.ddv = NewDDV(n.cfg.Clusters)
	n.ddvChanged()
	n.resetDeltaState()
	n.epochs.reset()
	n.resetCLCs()
	n.resetReplicas()
	n.mirrorLogs = make(map[topology.NodeID]*mirrorLog, n.cfg.Replicas)
	n.mirrorBytes = 0
	n.resetLog()
	n.phase = cpIdle
	n.provisional = clcRecord{}
	n.inFlight = false
	n.pending = n.pending[:0]
	n.pendingAlways = false
	n.frozenSends = false
	n.frozenDelivs = false
	n.sendQueue = nil
	n.inboundQueue = nil
	n.heldInter = nil
	n.rbActive = false
	n.deferredAlert = nil
	n.recoverWait = nil
	n.cascadeMemo = make(map[topology.ClusterID]cascadeRecord)
	n.emit(Event{Kind: EventRestarted})
}

// resetDeltaState clears the delta-tracking state that derives from the
// DDV/commit history: the commit base (re-synced from the restored
// record by the recovery path), the lazy-receipt and ack accumulators,
// the shared sparse piggyback, and the per-pipe examination cursors (a
// reset forces a full-width re-exam, which any decrease of this node's
// own DDV requires for equivalence with the dense encoding).
func (n *Node) resetDeltaState() {
	for i := range n.commitBase {
		n.commitBase[i] = 0
	}
	n.recvDirty.Reset()
	n.gcScanValid = false
	n.acked = n.acked[:0]
	n.lastPiggyGen = 0
	n.lastPiggy = SparseDDV{}
	n.resetPiggyExam()
}

// resetPiggyExam discards the clean-exam cursor of every inbound pipe.
func (n *Node) resetPiggyExam() {
	if n.piggyCodecs != nil {
		n.piggyCodecs.ResetPiggyExam(n.cluster)
	}
}

// ---- event entry points ----

// OnTimer handles a timer expiry.
func (n *Node) OnTimer(k TimerKind) {
	if n.failed {
		return
	}
	switch k {
	case TimerCLC:
		n.onCLCTimer()
	case TimerGC:
		n.onGCTimer()
	}
}

// OnMessage handles a protocol or wrapped application message.
func (n *Node) OnMessage(src topology.NodeID, msg Msg) {
	if n.failed {
		return
	}
	switch m := msg.(type) {
	case *AppMsg:
		// Pooled-box variant of the per-message hot path (see BoxPool).
		// The box is the harness's to reclaim; the handler gets a copy.
		n.onAppMsg(src, *m)
	case *AppAck:
		n.onAppAck(src, *m)
	case *LogMirror:
		n.onLogMirror(src, *m)
	case AppMsg:
		n.onAppMsg(src, m)
	case AppAck:
		n.onAppAck(src, m)
	// Recycled control boxes (see BoxReclaimer), copied likewise.
	case *Box[CLCRequest]:
		n.onCLCRequest(src, m.M)
	case *Box[CLCAck]:
		n.onCLCAck(src, m.M)
	case *Box[CLCCommit]:
		n.onCLCCommit(src, m.M)
	case *Box[ForceCLC]:
		n.onForceCLC(src, m.M)
	case *Box[Replica]:
		n.onReplica(src, m.M)
	case *Box[ReplicaAck]:
		n.onReplicaAck(src, m.M)
	case *Box[LogMirror]:
		n.onLogMirror(src, m.M)
	case CLCRequest:
		n.onCLCRequest(src, m)
	case CLCAck:
		n.onCLCAck(src, m)
	case CLCCommit:
		n.onCLCCommit(src, m)
	case ForceCLC:
		n.onForceCLC(src, m)
	case Replica:
		n.onReplica(src, m)
	case ReplicaAck:
		n.onReplicaAck(src, m)
	case RollbackAlert:
		n.onRollbackAlert(src, m)
	case RollbackCmd:
		n.onRollbackCmd(src, m)
	case RollbackAck:
		n.onRollbackAck(src, m)
	case RollbackResume:
		n.onRollbackResume(src, m)
	case RecoverStateReq:
		n.onRecoverStateReq(src, m)
	case RecoverStateResp:
		n.onRecoverStateResp(src, m)
	case ReReplicateReq:
		n.onReReplicateReq(src, m)
	case LogMirror:
		n.onLogMirror(src, m)
	case LogTrim:
		n.onLogTrim(src, m)
	case GCRequest:
		n.onGCRequest(src, m)
	case GCReport:
		n.onGCReport(src, m)
	case GCCollect:
		n.onGCCollect(src, m)
	case GCDrop:
		n.onGCDrop(src, m)
	case GCDemand:
		n.onGCDemand(src, m)
	case GCToken:
		n.onGCToken(src, m)
	default:
		panic(fmt.Sprintf("core: unknown message %T", msg))
	}
}

// OnFailureDetected is invoked by the failure detector on a surviving
// node of the failed node's cluster (the paper leaves the detector out
// of scope, §3.4); that node coordinates the cluster rollback.
func (n *Node) OnFailureDetected(failedNode topology.NodeID) {
	if n.failed {
		return
	}
	if failedNode.Cluster != n.cluster {
		panic("core: failure detected for a foreign cluster")
	}
	n.emit(Event{Kind: EventFailureDetected})
	n.startClusterRollback()
}

// recordStoredStat refreshes the stored-CLC series for this cluster
// (leader only, so it is recorded once per cluster).
func (n *Node) recordStoredStat() {
	if n.leader() {
		n.emit(Event{Kind: EventCLCStored, Value: float64(n.clcs.Len())})
		n.emit(Event{Kind: EventLogSize, Value: float64(len(n.log))})
	}
}
