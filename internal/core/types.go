// Package core implements the HC3I checkpointing protocol — the primary
// contribution of the paper: coordinated (two-phase commit) checkpointing
// inside each cluster combined with communication-induced checkpointing
// between clusters, sender-side optimistic message logging, cascading
// rollback with recovery-line computation, and garbage collection.
//
// The protocol is written as a deterministic event-driven state machine
// (Node). A harness supplies an Env (clock, transport, timers, statistics)
// and AppHooks (application snapshot/restore/delivery); the discrete
// event simulator (internal/federation) and the live goroutine runtime
// (internal/runtime) drive the very same code.
package core

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/topology"
)

// SN is a cluster sequence number: the count of cluster-level
// checkpoints (CLCs) committed by a cluster. The two-phase commit keeps
// it identical on every node of the cluster outside commit windows
// (paper §3.1).
type SN uint64

// Epoch counts the rollbacks a cluster has performed. Inter-cluster
// messages are stamped with the sender cluster's epoch so that messages
// from an aborted (rolled-back) execution can be recognized and dropped.
// The paper leaves this implicit ("a sent message will be received in an
// arbitrary but finite laps of time"); an implementation needs it to
// separate pre- and post-rollback traffic.
type Epoch uint64

// DDV is a Direct Dependencies Vector: one SN entry per *cluster* of the
// federation (paper §3.2). For cluster j, DDV[j] is j's own SN and
// DDV[i] (i != j) is the highest SN received from cluster i.
type DDV []SN

// NewDDV returns an all-zero DDV for n clusters.
func NewDDV(n int) DDV { return make(DDV, n) }

// Clone returns an independent copy. Use it when the copy escapes the
// current event (handed to Env.Send); for transient
// element-wise work prefer CopyFrom into a reusable buffer.
func (d DDV) Clone() DDV {
	c := make(DDV, len(d))
	copy(c, d)
	return c
}

// CopyFrom overwrites d with o's entries. The vectors must have the
// same length (all DDVs of one federation do). It is the
// allocation-free counterpart of Clone for buffers the caller owns.
func (d DDV) CopyFrom(o DDV) {
	if len(d) != len(o) {
		panic(fmt.Sprintf("core: CopyFrom length mismatch %d != %d", len(d), len(o)))
	}
	copy(d, o)
}

// DDVArena hands out DDVs sliced from chunked backing storage, so the
// vectors that escape an event (dense-wire piggybacks and commit
// broadcasts, resent piggybacks, held copies pinned while a remote
// restore is pending) allocate one chunk per 64 vectors
// instead of one slice per Clone. Each Node owns one arena; a vector
// handed out lives as long as whatever retains it (the chunk is
// garbage-collected once every vector cut from it is dropped), and
// chunks are never reallocated, so outstanding slices
// stay valid forever. Full-capacity slicing means a misplaced append
// can never bleed into a neighbouring vector.
//
// An arena hides its cost from allocation counts: a chunk is one
// allocation however many width-sized vectors it serves. The delta
// wire therefore cuts nothing per inter-cluster message: a log entry
// shares its generation's sparse piggyback and a held message keeps
// its raised pairs (both PairArena), and only a resend writes a
// logged piggyback out dense.
type DDVArena struct {
	width int
	chunk []SN
	off   int
	// vecs is the size (in vectors) of the next chunk. Chunks grow
	// geometrically from arenaFirstVectors to arenaChunkVectors, so a
	// node that only ever cuts its handful of setup vectors does not
	// strand a full-size chunk — at 1024 clusters a 64-vector chunk is
	// half a megabyte, per node.
	vecs int
}

// arenaChunkVectors is how many DDVs one steady-state backing chunk
// holds; arenaFirstVectors is the size of an arena's first chunk.
const (
	arenaChunkVectors = 64
	arenaFirstVectors = 8
)

// Init sizes the arena for vectors of the given width (the federation's
// cluster count). Width never changes over a node's lifetime.
func (a *DDVArena) Init(width int) { a.width = width }

// cut slices the next uninitialized vector off the arena. Callers must
// overwrite every entry before the vector is read.
func (a *DDVArena) cut() DDV {
	if a.off+a.width > len(a.chunk) {
		switch {
		case a.vecs == 0:
			a.vecs = arenaFirstVectors
		case a.vecs < arenaChunkVectors:
			a.vecs *= 2
		}
		a.chunk = make([]SN, a.width*a.vecs)
		a.off = 0
	}
	d := a.chunk[a.off : a.off+a.width : a.off+a.width]
	a.off += a.width
	return DDV(d)
}

// New returns a zeroed DDV backed by the arena.
func (a *DDVArena) New() DDV {
	d := a.cut()
	for i := range d {
		d[i] = 0
	}
	return d
}

// Clone returns an arena-backed copy of d.
func (a *DDVArena) Clone(d DDV) DDV {
	c := a.cut()
	copy(c, d)
	return c
}

// Slab is the DDVArena pattern for single values: it hands out pointers
// cut from chunked backing arrays, one allocation per chunk instead of
// one per value. Chunks grow geometrically from slabFirst to slabChunk
// values and are allocated on first use, so an owner that cuts nothing
// pays nothing. A value lives as long as anything retains it (a chunk
// is garbage-collected once every value cut from it is unreachable);
// slots are never reused, so an owner that drops a value holding
// references zeroes it.
type Slab[T any] struct {
	chunk []T
	next  int // size of the next chunk
}

const (
	slabFirst = 8
	slabChunk = 128
)

// New returns a pointer to a zero value cut from the slab.
func (s *Slab[T]) New() *T {
	if len(s.chunk) == 0 {
		switch {
		case s.next == 0:
			s.next = slabFirst
		case s.next < slabChunk:
			s.next *= 2
		}
		s.chunk = make([]T, s.next)
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return p
}

// Merge raises each entry to the element-wise maximum with o and
// reports whether any entry changed. Used by the transitive-dependency
// extension (paper §7 future work).
func (d DDV) Merge(o DDV) bool { return mergeMax(d, o) }

// Equal reports element-wise equality.
func (d DDV) Equal(o DDV) bool { return equalSN(d, o) }

// Dominates reports whether every entry of d is at least the
// corresponding entry of o — "d already covers the dependencies o
// demands". The vectors must have the same length.
func (d DDV) Dominates(o DDV) bool { return dominatesSN(d, o) }

// String renders the vector like "[1 0 3]".
func (d DDV) String() string {
	parts := make([]string, len(d))
	for i, v := range d {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// LogicalID identifies an application message independently of
// retransmissions: the sending node plus a per-sender sequence number.
// The consistency checker uses it to detect ghost and lost messages.
type LogicalID struct {
	Src topology.NodeID
	Seq uint64
}

// String renders the logical ID.
func (l LogicalID) String() string { return fmt.Sprintf("%v#%d", l.Src, l.Seq) }

// AppPayload is what the application hands to the protocol for
// transmission: opaque data plus its logical identity and size.
type AppPayload struct {
	ID   LogicalID
	Data any
	Size int // bytes of application data
}

// TimerKind distinguishes the protocol's timers (the paper's "timers
// file" configures their periods per cluster).
type TimerKind int

// Timer kinds.
const (
	// TimerCLC is the delay between unforced CLCs; armed on the cluster
	// leader only and reset at every commit, forced or not (§5.2).
	TimerCLC TimerKind = iota
	// TimerGC is the garbage-collection period; armed on the federation
	// GC initiator only (§3.5).
	TimerGC
	// NumTimerKinds bounds the enum; harnesses that index per-kind
	// storage size it from this constant.
	NumTimerKinds
)

// String names the timer kind.
func (k TimerKind) String() string {
	switch k {
	case TimerCLC:
		return "clc"
	case TimerGC:
		return "gc"
	default:
		return fmt.Sprintf("TimerKind(%d)", int(k))
	}
}

// Env is everything the protocol needs from its execution environment.
// Implementations must invoke the Node strictly sequentially (the DES is
// single-threaded; the live runtime uses one goroutine per node).
type Env interface {
	// Now returns the current virtual (or scaled wall-clock) time.
	Now() sim.Time
	// Send transmits a protocol control message of the given wire size.
	Send(dst topology.NodeID, size int, msg Msg)
	// SendApp transmits a wrapped application message (accounted as
	// application traffic, like the paper's Table 1).
	SendApp(dst topology.NodeID, size int, msg Msg)
	// SetTimer (re)arms one of the node's timers; sim.Forever disarms.
	SetTimer(k TimerKind, d sim.Duration)
}

// BoxPool is an optional upgrade interface of Env: a harness that
// implements it hands the protocol recycled wire-message boxes for the
// per-message hot path, eliminating the interface-boxing allocation of
// every AppMsg/AppAck send. These boxes are the harness's: it keeps
// their free list, where the checkpoint round's control messages travel
// in sender-owned Boxes instead (see BoxReclaimer). Ownership contract:
// a box obtained here is filled and passed to exactly one Send/SendApp
// call; the harness takes it back once nothing reads it, never before
// the destination's OnMessage returns (receivers copy anything they
// keep, never the box). The simulator reclaims it right after that
// OnMessage. The live runtime pools AppMsg and AppAck, one sync.Pool
// per type: over TCP the sender's box goes back when its frame leaves
// the send window for good (acknowledged or given up, never earlier:
// a broken connection is resent from the window), and the box the
// decoder fills goes back after the receiving node's OnMessage
// returns; over in-process channels the sender's box is the one
// delivered, and it goes back there. Environments that do not
// implement BoxPool get plain value messages.
type BoxPool interface {
	AppMsgBox() *AppMsg
	AppAckBox() *AppAck
}

// AppHooks connects the protocol to the application layer of one node:
// checkpointing captures application state through Snapshot/Restore and
// received payloads are handed up through Deliver. The system-level
// placement ("programmers do not need to write specific code", §6) is
// preserved: the application is unaware of the protocol.
type AppHooks interface {
	// Snapshot captures the node's application state. The returned
	// value is opaque to the protocol; size is its footprint in bytes
	// (it prices checkpoint transfers to stable storage).
	Snapshot() (state any, size int)
	// Restore reinstalls a state previously captured by Snapshot.
	Restore(state any)
	// Deliver hands an application payload to the application.
	Deliver(from topology.NodeID, p AppPayload)
}

// Stabilizer is an optional upgrade interface of AppHooks, resolved
// once at node construction like BoxPool on Env: an application that
// implements it is told whenever a checkpoint commits, with the
// Snapshot value the committed record holds. Everything the snapshot
// covers is then backed by stable storage — the basis of the
// stable-delivery latency metric (a later rollback can still rescind
// the coverage; the application rewinds its marks in Restore). Nil
// for applications that don't implement it: the protocol is unchanged.
type Stabilizer interface {
	Stabilized(state any)
}
