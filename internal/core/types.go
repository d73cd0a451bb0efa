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

// Slab hands out pointers to single values cut from chunked backing
// arrays, one allocation per chunk instead of one per value. Chunks
// grow geometrically from slabFirst to slabChunk values and are
// allocated on first use, so an owner that cuts nothing pays nothing.
// A value lives as long as anything retains it (a chunk
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
// delivered, and it goes back there. The live runtime pools LogMirror
// the same way, through MirrorBoxPool. Environments that do not
// implement BoxPool get plain value messages.
type BoxPool interface {
	AppMsgBox() *AppMsg
	AppAckBox() *AppAck
}

// MirrorBoxPool is an optional upgrade interface of Env, resolved once
// at node construction like BoxPool: a harness that implements it hands
// the protocol recycled LogMirror boxes under BoxPool's ownership
// contract, so the mirror every logged inter-cluster send costs (§3.3)
// is not boxed into Msg. The live runtime implements it; the simulator
// does not, and sends mirrors in the node's own Boxes (BoxReclaimer).
// It is the interim form of one generic per-type pool, which folds it
// into BoxPool once every harness that implements BoxPool reclaims
// boxes. Until then it stays apart: a LogMirrorBox method on BoxPool
// would silently make a harness without it (the benchmark's bed) stop
// satisfying BoxPool and fall back to value sends.
type MirrorBoxPool interface {
	LogMirrorBox() *LogMirror
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
