package core

import "repro/internal/topology"

// Observer is an optional upgrade interface of Env: a harness that
// implements it receives a callback at every protocol event that
// changes the global safety picture — checkpoint commits, rollbacks
// and recoveries, inter-cluster deliveries, delta-piggyback sends and
// garbage-collection drops. The online invariant oracle
// (internal/oracle) is the one implementation; runs without an
// observer pay exactly one nil check per site.
//
// Contract: callbacks run synchronously inside the protocol event that
// triggered them, on the harness's single simulation goroutine. DDV
// arguments may alias node-owned buffers that mutate after the callback
// returns — an observer copies what it keeps. A commit's pairs are
// immutable (see Chain) and may be retained.
type Observer interface {
	// ObserveMode reports a node's protocol mode at construction.
	// Mode-specific claims are scoped by it: the no-orphan obligation
	// assumes eager dependency tracking (ModeHC3I / ModeForceAll raise
	// the cluster DDV before delivering), which ModeIndependent's lazy
	// tracking deliberately gives up — orphans between commits are the
	// documented cost of that baseline (§2.2), not a violation.
	ObserveMode(id topology.NodeID, mode ProtocolMode)
	// ObserveCommit fires once per node per committed CLC, after the
	// node adopted the new SN and DDV and stored the record, before any
	// queued traffic drains. ddv is the committed cluster-wide vector;
	// pairs is the commit's delta against the previous commit (nil on
	// the dense wire, where ddv is the only encoding).
	ObserveCommit(id topology.NodeID, seq SN, epoch Epoch, ddv DDV, pairs []DDVPair, forced bool)
	// ObserveRollback fires once per node per completed local restore —
	// both the in-place rollback path and the crash-recovery path
	// (replica fetched back from a neighbour). ddv is the restored
	// vector.
	ObserveRollback(id topology.NodeID, toSN SN, newEpoch Epoch, ddv DDV)
	// ObserveDeliver fires at every inter-cluster application delivery:
	// the receiving node dst hands src's payload up with the message's
	// piggybacked (srcEpoch, sendSN) while itself at (recvEpoch,
	// recvSN).
	ObserveDeliver(dst, src topology.NodeID, srcEpoch Epoch, sendSN SN, recvEpoch Epoch, recvSN SN)
	// ObservePiggySend fires for every fresh delta-encoded transitive
	// inter-cluster send: dense is the exact vector the message stands
	// for (the node's shared piggy clone — immutable once handed out),
	// entering the src.Cluster→dstCluster pipe in FIFO order. The pipe
	// decoder must reproduce it at pipe exit (see netsim.PipeExit).
	ObservePiggySend(src topology.NodeID, dstCluster topology.ClusterID, dense DDV)
	// ObserveGCDrop fires once per node per applied garbage-collection
	// threshold vector.
	ObserveGCDrop(id topology.NodeID, minSNs []SN)
}

// MutationFlags deliberately break one protocol rule each, so the
// invariant oracle's mutation smoke tests can prove it detects real
// protocol damage (a checker that never fires proves nothing). Test
// instrumentation only — never set outside oracle smoke tests, and
// always reset afterwards.
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
}
