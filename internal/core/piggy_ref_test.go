package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
)

// The transitive piggyback is held by reference on the delta wire: a
// held message keeps only the pairs it raised. A log entry and its
// mirror share the sender's sparse vector of the DDV generation the
// send was made in, on both wires. The tests below run one scenario on
// the delta wire and on its codec-free twin, which puts that shared
// vector itself on every message, and require the same observations.

// twinRun runs scenario on both wires and fails unless they report the
// same lines; it returns the delta wire's.
func twinRun(t *testing.T, sizes []int, scenario func(b *testbed) []string) []string {
	t.Helper()
	delta := scenario(newTwinTestbed(t, sizes, 1, false))
	whole := scenario(newTwinTestbed(t, sizes, 1, true))
	if !reflect.DeepEqual(delta, whole) {
		t.Fatalf("delta wire observed\n  %s\ncodec-free wire observed\n  %s",
			strings.Join(delta, "\n  "), strings.Join(whole, "\n  "))
	}
	return delta
}

// observe renders what a scenario's outcome is judged by: every node's
// SN, DDV and deliveries, every log entry's acknowledgement, and the
// counters of the CIC rule and the resend paths.
func observe(b *testbed) []string {
	var lines []string
	for c := 0; c < b.width; c++ {
		for i := 0; b.node(c, i) != nil; i++ {
			n := b.node(c, i)
			lines = append(lines, fmt.Sprintf("%v sn=%d ddv=%v delivered=%v", n.ID(), n.SN(), n.ddv, b.app(c, i).delivered))
			for _, e := range n.log {
				lines = append(lines, fmt.Sprintf("  log %v acked=%v ackSN=%d", e.payload.ID, e.acked, e.ackSN))
			}
		}
	}
	for _, k := range []string{"cic.held", "cic.force_requested", "app.delivered.inter", "log.resent", "log.resent_after_recovery", "log.recovered_entries"} {
		lines = append(lines, fmt.Sprintf("%s=%d", k, b.stats[k]))
	}
	return lines
}

// resends renders the resent application messages queued to cluster
// dst, with the piggyback each carries written out dense.
func resends(q []sentMsg, dst topology.ClusterID) []string {
	var out []string
	for _, s := range q {
		var m AppMsg
		switch v := s.msg.(type) {
		case *AppMsg:
			m = *v
		case AppMsg:
			m = v
		default:
			continue
		}
		if s.dst.Cluster == dst && m.Resend {
			out = append(out, fmt.Sprintf("resend %v piggy=%v", m.Payload.ID, dense(m.Piggy)))
		}
	}
	return out
}

// TestHeldMessageReexaminedFromPinnedPairs: two messages on one pipe
// reach a receiver before its forced CLC, the later one raising more
// than the first. The second's force demand is withheld from the
// leader until the first CLC commits, so that CLC covers the first
// message but not the second, and the re-examination after it must
// judge the first by what the first carried — its pinned pairs —
// though the pipe decoder now holds the second's vector: the first is
// delivered after one commit, the second re-held for the next.
func TestHeldMessageReexaminedFromPinnedPairs(t *testing.T) {
	twinRun(t, []int{2, 2, 1}, func(b *testbed) []string {
		recv, snd, third := b.node(0, 1), b.node(1, 0), b.node(2, 0)
		third.Send(snd.ID(), payload(third.ID(), 1)) // c1 depends on c2
		b.pump()

		// Nothing reaches cluster 0 until both messages are sent; in
		// between, c1 commits twice and depends on c2 anew.
		b.withhold = func(m sentMsg) bool { return m.dst.Cluster == 0 }
		snd.Send(recv.ID(), payload(snd.ID(), 1))
		b.commitCLC(2)
		third.Send(snd.ID(), payload(third.ID(), 2))
		b.pump()
		b.commitCLC(1)
		snd.Send(recv.ID(), payload(snd.ID(), 2))
		b.release()
		forces := 0
		b.withhold = func(m sentMsg) bool {
			if _, ok := m.msg.(*Box[ForceCLC]); ok {
				forces++
				return forces == 2
			}
			return false
		}
		b.pump()
		b.release()
		b.pump()

		var ack [3]SN
		for _, e := range snd.log {
			if !e.acked {
				t.Fatalf("message %v never acknowledged", e.payload.ID)
			}
			ack[e.payload.ID.Seq] = e.ackSN
		}
		if ack[1] >= ack[2] {
			t.Errorf("first message delivered at SN %d, second at %d: the first waited for the second's CLC", ack[1], ack[2])
		}
		return observe(b)
	})
}

// gcDroppedSend runs a send whose stored record a collection then
// drops while the log entry survives: c1's node 1 sends to c0 at SN 1,
// c1 commits twice, and c0's initiator collects. The entry and the
// holder's mirror still share one sparse vector, the one the send
// carried. It returns the sender and that vector.
func gcDroppedSend(t *testing.T, b *testbed) (*Node, DDV) {
	t.Helper()
	snd, recv := b.node(1, 1), b.node(0, 0)
	recv.cfg.GCInitiator = true
	want := snd.DDVSnapshot()
	snd.Send(recv.ID(), payload(snd.ID(), 1))
	b.pump()
	b.commitCLC(1)
	b.commitCLC(1)
	recv.OnTimer(TimerGC)
	b.pump()
	if snd.LogLen() != 1 {
		t.Fatalf("log holds %d entries after the collection, want the send's", snd.LogLen())
	}
	e := snd.log[0]
	if snd.chain.Index(e.piggySN) >= 0 {
		t.Fatalf("record %d still stored: the collection dropped nothing", e.piggySN)
	}
	m := b.node(1, 0).mirrorLogs[snd.ID()].entries.At(0)
	if !sharesPairs(e.piggy, m.Piggy) {
		t.Fatalf("entry piggy %v and mirror piggy %v do not share one vector", e.piggy, m.Piggy)
	}
	if got := dense(e.piggy); !got.Equal(want) {
		t.Fatalf("entry piggy %v, want the vector at the send %v", got, want)
	}
	return snd, want
}

// sharesPairs reports whether a and b are one shared sparse vector.
func sharesPairs(a, b SparseDDV) bool {
	return a.Width == b.Width && len(a.Pairs) > 0 && len(a.Pairs) == len(b.Pairs) && &a.Pairs[0] == &b.Pairs[0]
}

// dense returns s written out.
func dense(s SparseDDV) DDV {
	v := NewDDV(s.Width)
	s.Dense(v)
	return v
}

// TestPiggyOneVectorPerGeneration: the sends a node makes while its DDV
// is unchanged share one sparse piggyback — their log entries and the
// holder's mirrors hold the same pairs — and a commit starts a new one,
// under ModeHC3I and ModeIndependent, on both wires.
func TestPiggyOneVectorPerGeneration(t *testing.T) {
	for _, mode := range []ProtocolMode{ModeHC3I, ModeIndependent} {
		for _, denseWire := range []bool{false, true} {
			b := newTwinTestbed(t, []int{2, 2}, 1, denseWire)
			for _, n := range b.nodes {
				n.cfg.Mode = mode
			}
			snd, holder := b.node(1, 1), b.node(1, 0)
			sendAt := func(seq uint64) SparseDDV {
				want := snd.DDVSnapshot()
				snd.Send(b.node(0, int(seq%2)).ID(), payload(snd.ID(), seq))
				b.pump()
				e := snd.log[len(snd.log)-1]
				if got := dense(e.piggy); !got.Equal(want) {
					t.Fatalf("%v dense=%v: send %d logged %v, want %v", mode, denseWire, seq, got, want)
				}
				ml := holder.mirrorLogs[snd.ID()]
				if m := ml.entries.At(ml.entries.Len() - 1); m.MsgID != e.msgID || !sharesPairs(m.Piggy, e.piggy) {
					t.Fatalf("%v dense=%v: send %d: mirror %+v does not share the entry's vector", mode, denseWire, seq, m)
				}
				return e.piggy
			}
			first, second := sendAt(1), sendAt(2)
			if !sharesPairs(first, second) {
				t.Errorf("%v dense=%v: two sends of one generation hold %v and %v, not one vector", mode, denseWire, first, second)
			}
			b.commitCLC(1)
			if third := sendAt(3); sharesPairs(first, third) || dense(first).Equal(dense(third)) {
				t.Errorf("%v dense=%v: the send after a commit holds %v, the generation before's %v", mode, denseWire, third, first)
			}
		}
	}
}

// TestLogMirrorRefusesOtherWidth: a holder stores a mirror whose
// piggyback is none or of the federation's width, and refuses, with a
// counter, one of any other width, which a resend could not write out.
func TestLogMirrorRefusesOtherWidth(t *testing.T) {
	b := newTwinTestbed(t, []int{2, 2}, 1, false)
	owner, holder := b.node(1, 1), b.node(1, 0)
	mirror := func(id uint64, p SparseDDV) LogMirror {
		return LogMirror{Owner: owner.ID(), MsgID: id, Dst: b.node(0, 0).ID(), Payload: payload(owner.ID(), id), PiggySN: 1, Piggy: p}
	}
	holder.OnMessage(owner.ID(), mirror(1, SparseDDV{}))
	holder.OnMessage(owner.ID(), mirror(2, SparseDDV{Width: 2, Pairs: []DDVPair{{Idx: 1, SN: 1}}}))
	holder.OnMessage(owner.ID(), mirror(3, SparseDDV{Width: 3, Pairs: []DDVPair{{Idx: 2, SN: 1}}}))
	holder.OnMessage(owner.ID(), mirror(4, SparseDDV{Width: 1}))
	if got := holder.mirrorLen(owner.ID()); got != 2 {
		t.Fatalf("holder stores %d mirrors, want the 2 of width 0 and 2", got)
	}
	if got := b.stats["log.mirror_refused_width"]; got != 2 {
		t.Fatalf("log.mirror_refused_width = %d, want 2", got)
	}
}

// TestAppMsgRefusesOtherWidth: a node refuses, with a counter and
// without panicking, an inter-cluster message whose piggyback it could
// not merge — a whole vector wider than the federation, a pair index
// outside it, a delta of another width, a whole vector of the right
// width whose pair lies outside it — on either wire.
func TestAppMsgRefusesOtherWidth(t *testing.T) {
	for _, dense := range []bool{true, false} {
		b := newTwinTestbed(t, []int{2, 2}, 1, dense)
		recv, src := b.node(0, 0), b.node(1, 0).ID()
		msg := func(id uint64) AppMsg {
			return AppMsg{MsgID: id, Payload: payload(src, id), SendSN: 1}
		}
		wide := msg(1)
		wide.Piggy = SparseDDV{Width: 3, Pairs: []DDVPair{{Idx: 0, SN: 1}, {Idx: 1, SN: 1}, {Idx: 2, SN: 5}}}
		recv.OnMessage(src, wide)
		negative := msg(2)
		negative.PiggyPairs = []DDVPair{{Idx: -1, SN: 1}}
		recv.OnMessage(src, negative)
		if got := b.stats["app.refused_width"]; got != 2 {
			t.Fatalf("dense=%v: app.refused_width = %d, want 2", dense, got)
		}
		delta := msg(3)
		delta.PiggyPairs, delta.PiggyWidth = []DDVPair{{Idx: 1, SN: 1}}, 3
		recv.OnMessage(src, delta)
		if got := b.stats["app.refused_width"]; got != 3 {
			t.Fatalf("dense=%v: a delta of width 3: app.refused_width = %d, want 3", dense, got)
		}
		outside := msg(4)
		outside.Piggy = SparseDDV{Width: 2, Pairs: []DDVPair{{Idx: 2, SN: 1}}}
		recv.OnMessage(src, outside)
		if got := b.stats["app.refused_width"]; got != 4 {
			t.Fatalf("dense=%v: a pair past a 2-wide vector: app.refused_width = %d, want 4", dense, got)
		}
		if got := b.stats["app.delivered.inter"] + b.stats["cic.held"]; got != 0 {
			t.Fatalf("dense=%v: %d refused messages were delivered or held", dense, got)
		}
	}
}

// TestResendAfterGCDropUsesExactVector: a logged send whose record was
// collected is resent, on a rollback of its receiver, with the exact
// vector it carried.
func TestResendAfterGCDropUsesExactVector(t *testing.T) {
	twinRun(t, []int{2, 2}, func(b *testbed) []string {
		snd, want := gcDroppedSend(t, b)
		recv := b.node(0, 0)
		snd.OnMessage(recv.ID(), RollbackAlert{Cluster: 0, NewSN: recv.SN(), NewEpoch: 1})
		got := resends(b.queue, 0)
		if len(got) != 1 || !strings.HasSuffix(got[0], "piggy="+want.String()) {
			t.Fatalf("resends %v, want one carrying %v", got, want)
		}
		b.queue = b.queue[:0]
		return append(got, observe(b)...)
	})
}

// TestOwnerCrashReadoptsExactVectors: the sender crashes; it re-adopts
// its log from the holder's mirrors — one entry whose record both have
// collected, one whose record is still stored — and the resends after
// its recovery carry the exact vectors of both sends.
func TestOwnerCrashReadoptsExactVectors(t *testing.T) {
	twinRun(t, []int{2, 2}, func(b *testbed) []string {
		snd, want1 := gcDroppedSend(t, b)
		want2 := snd.DDVSnapshot()
		snd.Send(b.node(0, 0).ID(), payload(snd.ID(), 2))
		b.pump()
		b.commitCLC(1) // the second send is part of the state restored below

		snd.Fail()
		snd.Restart()
		b.withhold = func(m sentMsg) bool { return len(resends([]sentMsg{m}, 0)) > 0 }
		b.node(1, 0).OnFailureDetected(snd.ID())
		b.pump()
		got := resends(b.withheld, 0)
		b.release()
		b.pump()
		if b.stats["log.recovered_entries"] != 2 {
			t.Fatalf("re-adopted %d log entries, want 2", b.stats["log.recovered_entries"])
		}
		for i, want := range []DDV{want1, want2} {
			id := payload(snd.ID(), uint64(i+1)).ID
			if !contains(got, fmt.Sprintf("resend %v piggy=%v", id, want)) {
				t.Errorf("no resend of %v carrying %v among %v", id, want, got)
			}
		}
		return append(got, observe(b)...)
	})
}

func contains(lines []string, s string) bool {
	for _, l := range lines {
		if l == s {
			return true
		}
	}
	return false
}

// TestRollbackAndRestartEmptyHeldQueue pins the precondition of the
// receive side's pinned pairs: the DDV never decreases under a held
// message, because the rollback and the restart that lower it empty the
// held queue. A message is held (its force demand withheld from the
// leader) when the cluster rolls back, and again when the holding node
// crashes and restarts; both times the queue is empty at once, and the
// message is still delivered once the resends arrive.
func TestRollbackAndRestartEmptyHeldQueue(t *testing.T) {
	twinRun(t, []int{3, 1}, func(b *testbed) []string {
		recv, snd := b.node(0, 1), b.node(1, 0)
		leader := b.node(0, 0).ID()
		hold := func(seq uint64) {
			b.withhold = func(m sentMsg) bool { return m.dst == leader }
			snd.Send(recv.ID(), payload(snd.ID(), seq))
			b.pump()
			if len(recv.heldInter) != 1 {
				t.Fatalf("message %d: %d held, want 1", seq, len(recv.heldInter))
			}
			if m := recv.heldInter[0].msg; b.useCodecs && (m.Piggy.Width != 0 || m.PiggyWidth != 0 || len(m.PiggyPairs) == 0) {
				t.Fatalf("delta wire: held copy %+v is not pinned to its raised pairs", m)
			}
		}

		hold(1)
		b.node(0, 2).Fail()
		b.node(0, 2).Restart()
		recv.OnFailureDetected(b.node(0, 2).ID()) // recv coordinates the rollback
		if len(recv.heldInter) != 0 {
			t.Fatalf("rollback left %d held messages", len(recv.heldInter))
		}
		b.release()
		b.pump()

		b.commitCLC(1) // the next message raises c0's entry again
		hold(2)
		recv.Fail()
		recv.Restart()
		if len(recv.heldInter) != 0 {
			t.Fatalf("restart left %d held messages", len(recv.heldInter))
		}
		b.release()
		b.node(0, 0).OnFailureDetected(recv.ID())
		b.pump()
		if got := b.app(0, 1).delivered; len(got) != 2 {
			t.Fatalf("receiver delivered %v, want both messages", got)
		}
		return observe(b)
	})
}

// queuedAppMsg returns the application message q carries in a pooled
// box, failing if it travels as a value.
func queuedAppMsg(t *testing.T, q sentMsg) *AppMsg {
	t.Helper()
	switch m := q.msg.(type) {
	case *AppMsg:
		return m
	case AppMsg:
		t.Fatalf("message %v to %v left as a value, not in a pooled box", m.Payload.ID, q.dst)
	}
	return nil
}

// TestCodecFreeSendAndResendShareLoggedPiggy: without pipe codecs, a
// transitive send and its resend carry the log entry's sparse vector
// itself, not a copy, priced at the dense width.
func TestCodecFreeSendAndResendShareLoggedPiggy(t *testing.T) {
	b := newTwinTestbed(t, []int{2, 2}, 1, true)
	snd, recv := b.node(1, 0), b.node(0, 0)
	check := func(what string, q sentMsg) {
		t.Helper()
		m := queuedAppMsg(t, q)
		e := snd.log[len(snd.log)-1]
		if !sharesPairs(m.Piggy, e.piggy) {
			t.Fatalf("%s carries %v, not the log entry's vector %v", what, m.Piggy, e.piggy)
		}
		if want := m.Payload.Size + headerBytes + snBytes + perClusterByte*b.width; m.WireSize() != want || q.size != want {
			t.Fatalf("%s priced %d (sent as %d), want %d", what, m.WireSize(), q.size, want)
		}
	}
	snd.Send(recv.ID(), payload(snd.ID(), 1))
	if len(b.queue) == 0 || !b.queue[len(b.queue)-1].app {
		t.Fatalf("the send queued %v, want the application message last", b.queue)
	}
	check("the send", b.queue[len(b.queue)-1])
	b.pump()
	snd.OnMessage(recv.ID(), RollbackAlert{Cluster: 0, NewSN: recv.SN(), NewEpoch: 1})
	var resent int
	for _, q := range b.queue {
		if q.app {
			check("the resend", q)
			resent++
		}
	}
	if resent != 1 {
		t.Fatalf("%d resends queued, want 1", resent)
	}
	b.queue = b.queue[:0]
}

// TestRecoveredResendsTravelInBoxes: the resends a node issues when its
// cluster resumes after a rollback leave in pooled boxes, like every
// other application message, and carry the logged vector itself.
func TestRecoveredResendsTravelInBoxes(t *testing.T) {
	for _, dense := range []bool{false, true} {
		b := newTwinTestbed(t, []int{2, 1}, 1, dense)
		snd, holder := b.node(0, 1), b.node(0, 0)
		b.withhold = func(m sentMsg) bool { return m.dst.Cluster == 1 }
		snd.Send(b.node(1, 0).ID(), payload(snd.ID(), 1)) // never acknowledged
		b.pump()
		b.commitCLC(0) // the send is part of the state restored below
		snd.Fail()
		snd.Restart()
		holder.OnFailureDetected(snd.ID())
		b.pump()
		if got := b.stats["log.resent_after_recovery"]; got == 0 {
			t.Fatalf("dense=%v: no resend after the recovery", dense)
		}
		resent := 0
		for _, q := range b.withheld {
			if !q.app {
				continue
			}
			if m := queuedAppMsg(t, q); m.Resend {
				resent++
				if e := snd.log[0]; !sharesPairs(m.Piggy, e.piggy) {
					t.Fatalf("dense=%v: recovered resend carries %v, not the log entry's vector %v", dense, m.Piggy, e.piggy)
				}
			}
		}
		if resent == 0 {
			t.Fatalf("dense=%v: no resend reached the receiver's cluster", dense)
		}
		b.release()
		b.pump()
	}
}

// TestHeldWhileAwaitingRestoreKeepsWholeVector: a node whose rollback
// target is stored remotely (its copy was lost in an earlier crash)
// waits for the holder's state. A delta-piggybacked message it holds
// meanwhile keeps the exact vector its sender logged, not the pairs it
// raised: the restore lowers the DDV beneath it, which the dense
// shadow checks at the restore.
func TestHeldWhileAwaitingRestoreKeepsWholeVector(t *testing.T) {
	b := newTwinTestbed(t, []int{2, 2}, 1, false)
	leader, recv, snd := b.node(0, 0), b.node(0, 1), b.node(1, 0)
	b.commitCLC(0)
	b.commitCLC(1)
	// Stand in for the earlier crash: recv's copy of record 2 is remote.
	r := recv.clcs.At(recv.chain.Index(2))
	recv.clcBytes -= r.storedBytes()
	r.remote = true
	recv.clcBytes += r.storedBytes()

	// The state request and everything bound for cluster 1 (the alert
	// that would make the next send target the new epoch) wait.
	b.withhold = func(m sentMsg) bool {
		_, req := m.msg.(RecoverStateReq)
		return req || m.dst.Cluster == 1
	}
	leader.initiateRollback(2)
	b.pump()
	if recv.recoverWait == nil {
		t.Fatal("the rollback did not wait for the remote state")
	}
	snd.Send(recv.ID(), payload(snd.ID(), 1))
	b.pump()
	if len(recv.heldInter) != 1 {
		t.Fatalf("%d messages held, want the send", len(recv.heldInter))
	}
	held, logged := recv.heldInter[0].msg, snd.log[len(snd.log)-1].piggy
	if held.PiggyWidth != 0 || len(held.PiggyPairs) != 0 || !dense(held.Piggy).Equal(dense(logged)) {
		t.Fatalf("held copy %+v, want the vector its sender logged %v", held, logged)
	}
	b.release()
	b.pump()
	if recv.recoverWait != nil {
		t.Fatal("the remote restore never completed")
	}
}
