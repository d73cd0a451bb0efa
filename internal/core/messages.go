package core

import (
	"repro/internal/topology"
)

// Msg is implemented by every protocol wire message. All fields are
// exported so the live runtime's wire codec (internal/runtime/wire.go)
// can encode them; a new message type needs a tag and a case there.
type Msg interface{ ProtocolMessage() }

// ReclaimableMsg is implemented by sender-owned message boxes (Box: the
// checkpoint round's control messages, the baseline protocols' wire
// envelopes): the simulation harness calls ReclaimMsgBox once, after
// the destination's OnMessage returned, handing the box back to its
// sender's free list. Receivers copy what they keep and never retain
// the box itself.
type ReclaimableMsg interface {
	Msg
	ReclaimMsgBox()
}

// Wire sizes in bytes, used to price protocol traffic in the network
// model. Piggybacked vectors add 8 bytes per cluster.
//
// Pricing note for the delta wire representation (delta.go): messages
// carry dependency metadata as sparse (index, SN) pairs plus the width
// they stand for (an AppMsg piggyback is the sender's whole vector in
// sparse form), and every form is priced at the dense width, so
// transmission delays, byte counters and recorded goldens are invariant
// under the encoding.
// (A real deployment would also shrink the wire; modeling that would
// change every recorded result, so it is deliberately not done.)
const (
	snBytes        = 8
	headerBytes    = 16 // ids, flags
	controlBytes   = 32 // fixed part of small control messages
	perClusterByte = 8
)

// AppMsg wraps one application message. Intra-cluster messages carry
// SendSN so stragglers that cross a checkpoint line can be folded into
// that checkpoint (channel state); inter-cluster messages additionally
// piggyback the sender cluster's SN (and, with the transitive
// extension, its whole DDV) — the heart of the CIC mechanism (§3.2).
type AppMsg struct {
	MsgID      uint64 // unique per sender node
	Payload    AppPayload
	SrcCluster topology.ClusterID
	SrcEpoch   Epoch
	SendSN     SN // sender cluster's SN at send time
	// Piggy is the whole transitive piggyback in sparse form: the
	// sender's log entry shares it (immutable, see Node.piggy).
	Piggy SparseDDV
	// PiggyPairs is part of the compile shim below: zero-size, never set.
	PiggyPairs [0]DDVPair
	Resend     bool
	// DstEpoch carries the receiver cluster's newest epoch known to the
	// sender — on every inter-cluster send, not just resends (plain
	// sends target the known epoch so a delivery cannot land in a state
	// the receiver's in-flight rollback is about to erase): a receiver
	// that has not yet executed its local rollback defers the message
	// instead of delivering it into doomed state.
	DstEpoch Epoch
}

func (AppMsg) ProtocolMessage() {}

// DeltaCodec and AppMsg.PiggyPairs are an inert compile shim for the
// benchmark module (bench/drivers.go), which still names the per-pipe
// piggyback codec this package no longer has: every transitive AppMsg
// carries the sender's whole sparse vector (AppMsg.Piggy). Nothing in
// this module calls the shim, and PiggyPairs adds no bytes to AppMsg.
// It goes when the benchmark bed stops naming it.
type DeltaCodec struct{}

// Init does nothing (see DeltaCodec).
func (*DeltaCodec) Init(int) {}

// ResetSeen does nothing (see DeltaCodec).
func (*DeltaCodec) ResetSeen() {}

// Decode does nothing (see DeltaCodec).
func (*DeltaCodec) Decode([0]DDVPair) {}

// WireSize returns the bytes occupied on the network, payload plus
// protocol overhead ("transmitting an integer (SN) with them", §5.2).
func (m AppMsg) WireSize() int {
	return m.Payload.Size + headerBytes + snBytes + perClusterByte*m.Piggy.Width
}

// AppAck acknowledges an inter-cluster application message with the
// receiver cluster's SN at delivery time; the sender stores it in its
// volatile log (§3.3).
type AppAck struct {
	MsgID      uint64
	SrcCluster topology.ClusterID // cluster of the *acking* node
	SrcEpoch   Epoch
	ReceiverSN SN
}

func (AppAck) ProtocolMessage() {}

// CLCRequest opens the two-phase commit for checkpoint Seq within a
// cluster (§3.1). A forced request is priced at the dense width of the
// entries that forced it (UpdateWidth); the commit delivers them.
type CLCRequest struct {
	Seq         SN
	Epoch       Epoch
	Forced      bool
	UpdateWidth int
}

func (CLCRequest) ProtocolMessage() {}

// CLCAck tells the initiator a node has saved its local state (and
// replicated it to stable storage) for checkpoint Seq. In
// ModeIndependent it also carries the entries this node raised above
// the last committed vector, which the commit merges cluster-wide by
// element-wise max (lazy dependency tracking; omitted entries are
// exact no-ops).
type CLCAck struct {
	Seq       SN
	Epoch     Epoch
	NodePairs []DDVPair
}

func (CLCAck) ProtocolMessage() {}

// CLCCommit completes the two-phase commit: every node adopts the new
// SN and DDV, unfreezes application traffic and finalizes the stored
// checkpoint. Pairs are every entry that differs from the previous
// commit's vector, which each participant holds as its commitBase (the
// 2PC's Seq continuity guarantees no commit is ever skipped, and every
// rollback/recovery path restores the base from the restored record);
// Width prices them at the dense width.
type CLCCommit struct {
	Seq   SN
	Epoch Epoch
	Pairs []DDVPair
	Width int
}

func (CLCCommit) ProtocolMessage() {}

// ForceCLC asks the cluster leader to initiate a forced CLC because an
// inter-cluster message raised a DDV entry (§3.2): Pairs are the raised
// entries, priced at the dense width. Always requests an unconditional
// checkpoint even without new entries (ModeForceAll).
type ForceCLC struct {
	Epoch  Epoch
	Pairs  []DDVPair
	Width  int
	Always bool
}

func (ForceCLC) ProtocolMessage() {}

// Replica carries one node's local state to its stable-storage
// neighbour(s) inside the cluster (§3.1: "each node record its part of
// the CLCs ... in the memory of an other node").
type Replica struct {
	Seq   SN
	Epoch Epoch
	Owner topology.NodeID
	State any
	Size  int
}

func (Replica) ProtocolMessage() {}

// ReplicaAck confirms a Replica was stored; the owner only acks the 2PC
// once its state is safely replicated.
type ReplicaAck struct {
	Seq   SN
	Epoch Epoch
	From  topology.NodeID
}

func (ReplicaAck) ProtocolMessage() {}

// RollbackAlert is the inter-cluster alert of §3.4: cluster Cluster has
// rolled back and now runs from SN NewSN in epoch NewEpoch.
type RollbackAlert struct {
	Cluster  topology.ClusterID
	NewSN    SN
	NewEpoch Epoch
}

func (RollbackAlert) ProtocolMessage() {}

// RollbackCmd is broadcast inside a cluster by the rollback coordinator:
// restore the stored CLC with sequence number ToSN and move to NewEpoch.
type RollbackCmd struct {
	ToSN     SN
	NewEpoch Epoch
}

func (RollbackCmd) ProtocolMessage() {}

// RollbackAck confirms a node finished restoring.
type RollbackAck struct {
	ToSN  SN
	Epoch Epoch
	From  topology.NodeID
}

func (RollbackAck) ProtocolMessage() {}

// RecoverStateReq asks a neighbour for the replica of a failed node's
// state at checkpoint Seq (used when the failed node restarts).
type RecoverStateReq struct {
	Seq   SN
	Epoch Epoch
	Owner topology.NodeID
}

func (RecoverStateReq) ProtocolMessage() {}

// OlderState carries one additional repatriated checkpoint state.
type OlderState struct {
	SN    SN
	State any
	Size  int
}

// RecoverStateResp returns the replica plus the cluster's checkpoint
// metadata — the holder's stored chain up to Seq, which is the
// cluster's — so the restarted node can rebuild its (lost) CLC list.
// The chain's record list is the message's own; its anchor and pairs
// are shared with the holder's chain (immutable, see Chain), and the
// network prices it at one SN per record, as before the chain was
// sparse. All of the owner's surviving states are repatriated in bulk (Older),
// so that after recovery both the owner and the neighbour again hold a
// full copy — successive single faults stay tolerable.
type RecoverStateResp struct {
	Seq   SN
	Epoch Epoch
	Owner topology.NodeID
	State any
	Size  int
	Chain Chain
	Older []OlderState
	// Log repatriates the owner's mirrored message-log entries; the
	// owner re-adopts those whose send is part of the restored state.
	Log []LogMirror
}

func (RecoverStateResp) ProtocolMessage() {}

// LogMirror copies one freshly logged inter-cluster message to the
// sender's stable-storage neighbour. The paper keeps the log in the
// sender's volatile memory (§3.3), which loses it if the *sender node*
// is the one that crashes — and a receiver cluster that later rolls
// back would then miss resends. Mirroring the log alongside the
// checkpoint replicas closes that hole for the price of one cheap
// intra-cluster (SAN) message per rare inter-cluster send.
type LogMirror struct {
	Owner   topology.NodeID
	MsgID   uint64
	Dst     topology.NodeID
	Payload AppPayload
	// PiggySN is the owner cluster's SN at the send, as on the log
	// entry: a rollback keeps the mirror only if it is below the
	// restored SN.
	PiggySN SN
	// Piggy is the transitive piggyback the send carried (zero unless
	// transitive), shared with the owner's log entry: immutable, and
	// stored and shipped as it is.
	Piggy SparseDDV
	// Epoch is the owner's epoch at the send: a holder that has rolled
	// back since judges the mirror as that rollback would have (see
	// Node.onLogMirror).
	Epoch Epoch
}

func (LogMirror) ProtocolMessage() {}

// LogTrim tells the holder which of the owner's mirrored log entries
// are still alive (sent after the owner garbage-collected its log).
type LogTrim struct {
	Kept []uint64
}

func (LogTrim) ProtocolMessage() {}

// ReReplicateReq is sent by a restarted node to the neighbours whose
// checkpoint parts it used to hold: its crash lost those replicas, so
// the owners push them again. Without this, a *later* (non-simultaneous)
// failure of a neighbour would find no replica — the paper tolerates
// one fault at a time, and successive faults must each be tolerable.
type ReReplicateReq struct {
	Epoch Epoch
}

func (ReReplicateReq) ProtocolMessage() {}

// RollbackResume is the coordinator's end-of-rollback barrier: nodes
// froze application sends at RollbackCmd and resume them here, so no
// post-rollback message can overtake another node's restoration.
type RollbackResume struct {
	Epoch Epoch
}

func (RollbackResume) ProtocolMessage() {}

// GCRequest opens a garbage-collection round (§3.5); sent by the
// federation GC initiator to one node (the leader) of each cluster.
type GCRequest struct {
	Round uint64
}

func (GCRequest) ProtocolMessage() {}

// GCReport returns a cluster's stored-CLC metadata and current DDV to
// the initiator: the stored chain (see Chain), and CurPairs, which
// patches the newest CLC's vector into the cluster's current DDV (empty
// in ModeHC3I, where the DDV only changes at commits). The chain's
// record list is the report's own; its anchor and pairs are shared with
// the cluster's stored chain (immutable, see Chain). The network prices
// the report at its dense footprint (gcReportVectorCells).
type GCReport struct {
	Round    uint64
	Cluster  topology.ClusterID
	Epoch    Epoch
	Chain    Chain
	CurPairs []DDVPair
}

func (GCReport) ProtocolMessage() {}

// GCCollect distributes the per-cluster smallest SNs; each cluster
// discards CLCs older than its own entry and logged messages
// acknowledged below the receiver cluster's entry.
type GCCollect struct {
	Round  uint64
	MinSNs []SN
}

func (GCCollect) ProtocolMessage() {}

// GCDrop is the intra-cluster broadcast of GCCollect.
type GCDrop struct {
	Round  uint64
	Epoch  Epoch
	MinSNs []SN
}

func (GCDrop) ProtocolMessage() {}

// GCDemand asks the federation GC initiator for an immediate
// collection because a node's checkpoint memory is saturating —
// "Periodically, *or when a node memory saturates*, a garbage
// collection is initiated" (§3.5).
type GCDemand struct {
	From  topology.NodeID
	Bytes uint64
}

func (GCDemand) ProtocolMessage() {}

// GCToken implements the distributed (ring) garbage collector of the
// paper's future work (§7): it circulates across cluster leaders,
// accumulating reports; the last hop computes the thresholds and a
// second pass distributes them.
type GCToken struct {
	Round   uint64
	Phase   int // 0 = collecting reports, 1 = distributing MinSNs
	Reports []GCReport
	MinSNs  []SN
}

func (GCToken) ProtocolMessage() {}

// controlSize estimates the wire size of a control message. Boxed forms
// (*AppAck from BoxPool, *LogMirror from MirrorBoxPool, *Box[T] from a
// node's free lists) price
// identically to their values, so pooling and plain environments
// account traffic the same way; the boxed types with a default price
// (CLCAck, ReplicaAck, LogMirror) fall to the default like their
// values. Dependency pairs are priced at the dense width they stand
// for (see the pricing note above).
func controlSize(m Msg) int {
	switch v := m.(type) {
	case *Box[CLCRequest]:
		return controlSize(v.M)
	case *Box[CLCCommit]:
		return controlSize(v.M)
	case *Box[ForceCLC]:
		return controlSize(v.M)
	case *Box[Replica]:
		return controlSize(v.M)
	case AppAck, *AppAck:
		return controlBytes
	case CLCRequest:
		return controlBytes + perClusterByte*v.UpdateWidth
	case CLCCommit:
		return controlBytes + perClusterByte*v.Width
	case ForceCLC:
		return controlBytes + perClusterByte*v.Width
	case Replica:
		return controlBytes + v.Size
	case RecoverStateResp:
		s := controlBytes + v.Size + perClusterByte*v.Chain.Len()
		for _, o := range v.Older {
			s += o.Size
		}
		return s
	case GCReport:
		return controlBytes + perClusterByte*gcReportVectorCells(v)
	case GCCollect:
		return controlBytes + perClusterByte*len(v.MinSNs)
	case GCDrop:
		return controlBytes + perClusterByte*len(v.MinSNs)
	case GCToken:
		s := controlBytes + perClusterByte*len(v.MinSNs)
		for _, r := range v.Reports {
			s += controlBytes + perClusterByte*gcReportVectorCells(r)
		}
		return s
	default:
		return controlBytes
	}
}

// gcReportVectorCells prices a GC report's dependency metadata at its
// dense footprint: width x (current vector + one per stored CLC).
func gcReportVectorCells(r GCReport) int {
	return r.Chain.Anchor.Width * (1 + r.Chain.Len())
}
