package core

import "repro/internal/topology"

// Box is a recycled wire-message box. The sending node wraps a control
// message value in a box taken from its own free list (Boxes); the
// harness hands the box to the destination's OnMessage and then calls
// ReclaimMsgBox exactly once, which zeroes the box and returns it to
// the sender's list. Boxes go back to their sender because message
// types flow one way: a leader sends CLCRequest but never receives one.
//
// Ownership: the receiver copies the value (M) and never keeps the box;
// a box belongs to exactly one in-flight delivery, so a message sent to
// several nodes takes one box per destination. A box the network drops
// (a down destination) is never reclaimed and falls to the garbage
// collector.
type Box[T Msg] struct {
	M    T
	home *Boxes[T]
}

// ProtocolMessage marks a box as a wire message.
func (*Box[T]) ProtocolMessage() {}

// ReclaimMsgBox zeroes the box, dropping every reference its value
// held, and returns it to the sender's free list.
func (b *Box[T]) ReclaimMsgBox() {
	var zero T
	b.M = zero
	b.home.free = append(b.home.free, b)
}

// Boxes is one sender's free list of boxes for one message type.
type Boxes[T Msg] struct{ free []*Box[T] }

// Wrap returns m in a recycled box, or in a fresh one when none is free.
func (l *Boxes[T]) Wrap(m T) *Box[T] {
	if last := len(l.free) - 1; last >= 0 {
		b := l.free[last]
		l.free[last] = nil
		l.free = l.free[:last]
		b.M = m
		return b
	}
	return &Box[T]{M: m, home: l}
}

// BoxReclaimer is an optional upgrade interface of Env, resolved once
// at node construction like BoxPool: implementing it is the harness's
// promise that it calls ReclaimMsgBox on every ReclaimableMsg it
// delivers, once, after the destination's OnMessage returns. A node on
// such an env sends its checkpoint and logging control messages
// (CLCRequest, CLCAck, CLCCommit, ForceCLC, Replica, ReplicaAck,
// LogMirror) in recycled Boxes; on any other env it sends them as plain
// values. The live runtime does not implement it: it sends LogMirror in
// its own pooled boxes (MirrorBoxPool) and the rest as plain values.
type BoxReclaimer interface {
	ReclaimsMsgBoxes()
}

// ctlBoxes holds a node's free lists of control-message boxes, one per
// message type it sends boxed.
type ctlBoxes struct {
	req    Boxes[CLCRequest]
	ack    Boxes[CLCAck]
	commit Boxes[CLCCommit]
	force  Boxes[ForceCLC]
	rep    Boxes[Replica]
	repAck Boxes[ReplicaAck]
	mirror Boxes[LogMirror]
}

// sendCtl sends one control message to dst, priced from the value: in a
// box from l when the harness reclaims boxes, as a plain value
// otherwise.
func sendCtl[T Msg](n *Node, l *Boxes[T], dst topology.NodeID, m T) {
	size := controlSize(m)
	if n.reclaims {
		n.env.Send(dst, size, l.Wrap(m))
		return
	}
	n.env.Send(dst, size, m)
}

// sendMirror sends one log mirror to dst, priced from the value: in a
// box from the env's pool when it offers one (MirrorBoxPool), as
// sendCtl sends it otherwise.
func (n *Node) sendMirror(dst topology.NodeID, m LogMirror) {
	if n.mirrors != nil {
		b := n.mirrors.LogMirrorBox()
		*b = m
		n.env.Send(dst, controlSize(m), b)
		return
	}
	sendCtl(n, &n.ctl.mirror, dst, m)
}

// sendEach sends one control message to every node of dsts, priced once
// from the value. When the harness reclaims boxes and l is non-nil,
// every destination gets its own box; otherwise the value is boxed into
// Msg once and every destination receives that interface value, whose
// slices the per-destination copies of a value would share anyway.
func sendEach[T Msg](n *Node, l *Boxes[T], dsts []topology.NodeID, m T) {
	size := controlSize(m)
	if l != nil && n.reclaims {
		for _, dst := range dsts {
			n.env.Send(dst, size, l.Wrap(m))
		}
		return
	}
	var shared Msg = m
	for _, dst := range dsts {
		n.env.Send(dst, size, shared)
	}
}

// sendToCluster sends a control message to every other node of the
// cluster (see sendEach; l is nil for the types never sent boxed).
func sendToCluster[T Msg](n *Node, l *Boxes[T], m T) {
	sendEach(n, l, n.peers(), m)
}
