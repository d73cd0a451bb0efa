package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestEventStringMatchesTraceFormat pins every event kind's text to the
// printf format and trace level its trace point used before events
// were typed, so the text renderers (hc3itrace, hc3isim -trace, the
// live runtime) print what they always printed. Most of these sites
// never fire in the hc3itrace golden. The oracle's observation kinds
// are pinned at sim.TraceOff, and a kind without a row fails, so no
// new kind reaches trace output unnoticed. The counting kinds past
// EventGCDrop have their own test (TestStatKindTable).
func TestEventStringMatchesTraceFormat(t *testing.T) {
	ddv := DDV{1, 0, 3}
	pairs := []DDVPair{{Idx: 0, SN: 4}, {Idx: 2, SN: 7}}
	peer := topology.NodeID{Cluster: 1, Index: 2}
	msg := LogicalID{Src: peer, Seq: 17}
	err := errors.New("chains disagree")
	rows := []struct {
		ev    Event
		level sim.TraceLevel
		want  string
	}{
		{Event{Kind: EventCLCRequest, Seq: 5, Forced: true, Pairs: pairs}, sim.TraceDebug,
			fmt.Sprintf("CLC %d request (forced=%v update=%v)", SN(5), true, pairs)},
		{Event{Kind: EventCLCRequest, Seq: 6}, sim.TraceDebug,
			fmt.Sprintf("CLC %d request (forced=%v update=%v)", SN(6), false, []DDVPair(nil))},
		{Event{Kind: EventCLCRequestBusy, Seq: 5, Phase: int(cpPrepared)}, sim.TraceDebug,
			fmt.Sprintf("ignoring CLC request %d while in phase %d", SN(5), cpPrepared)},
		{Event{Kind: EventCLCRequestStale, Seq: 9, SN: 4}, sim.TraceDebug,
			fmt.Sprintf("ignoring out-of-sequence CLC request %d (sn=%d)", SN(9), SN(4))},
		{Event{Kind: EventCLCCommitted, Seq: 3, DDV: ddv, Forced: true}, sim.TraceDebug,
			fmt.Sprintf("CLC %d committed ddv=%v forced=%v", SN(3), ddv, true)},
		{Event{Kind: EventHoldMsg, Msg: msg, Peer: peer, Seq: 8, DDV: ddv}, sim.TraceDebug,
			fmt.Sprintf("hold msg %v from %v (piggy %d > ddv %v), forcing CLC", msg, peer, SN(8), ddv)},
		{Event{Kind: EventResend, Msg: msg, Peer: peer, Seq: 2}, sim.TraceDebug,
			fmt.Sprintf("resend %v to %v (alert sn=%d)", msg, peer, SN(2))},
		{Event{Kind: EventGCStart, Round: 12}, sim.TraceInfo,
			fmt.Sprintf("GC round %d starting", uint64(12))},
		{Event{Kind: EventGCFailed, Round: 12, Err: err}, sim.TraceInfo,
			fmt.Sprintf("GC round %d failed: %v", uint64(12), err)},
		{Event{Kind: EventRollback, Seq: 4, Epoch: 2}, sim.TraceInfo,
			fmt.Sprintf("ROLLBACK to CLC %d (epoch %d)", SN(4), Epoch(2))},
		{Event{Kind: EventReplicaMiss, Seq: 4, Peer: peer}, sim.TraceInfo,
			fmt.Sprintf("replica %d for %v not held here", SN(4), peer)},
		{Event{Kind: EventRollbackDone, Seq: 4, Epoch: 2}, sim.TraceInfo,
			fmt.Sprintf("rollback to %d complete, resuming (epoch %d)", SN(4), Epoch(2))},
		{Event{Kind: EventNoRollbackTarget, Cluster: 3, Seq: 11}, sim.TraceInfo,
			fmt.Sprintf("NO rollback target for alert c%d sn=%d; using oldest", topology.ClusterID(3), SN(11))},
		{Event{Kind: EventFailed}, sim.TraceInfo, "FAILED"},
		{Event{Kind: EventRestarted}, sim.TraceInfo, "RESTARTED (volatile memory lost)"},
		// The oracle's observations are never printed.
		{Event{Kind: EventNodeStart, Mode: ModeIndependent}, sim.TraceOff, "start (mode=independent)"},
		{Event{Kind: EventRestore, Seq: 4, Epoch: 2, DDV: ddv}, sim.TraceOff,
			fmt.Sprintf("restored CLC %d ddv=%v (epoch %d)", SN(4), ddv, Epoch(2))},
		{Event{Kind: EventDeliver, Peer: peer, PeerEpoch: 1, Seq: 8, Epoch: 2, SN: 5}, sim.TraceOff,
			fmt.Sprintf("deliver from %v (epoch %d sn=%d) at sn=%d (epoch %d)", peer, Epoch(1), SN(8), SN(5), Epoch(2))},
		{Event{Kind: EventGCDrop, Round: 4, DDV: ddv}, sim.TraceOff, fmt.Sprintf("GC round 4 drop below %v", ddv)},
	}
	covered := make(map[EventKind]bool)
	for _, r := range rows {
		covered[r.ev.Kind] = true
		if got := r.ev.String(); got != r.want {
			t.Errorf("kind %d: String() = %q, want %q", r.ev.Kind, got, r.want)
		}
		if got := r.ev.Level(); got != r.level {
			t.Errorf("kind %d: Level() = %v, want %v", r.ev.Kind, got, r.level)
		}
	}
	for k := EventCLCRequest; k <= EventGCDrop; k++ {
		if !covered[k] {
			t.Errorf("kind %d has no row", k)
		}
	}
}

type discardSink struct{}

func (discardSink) Event(Event) {}

// TestEmitAllocatesNothing: a trace point builds its Event on the stack
// and hands it over by value, with or without a sink attached.
func TestEmitAllocatesNothing(t *testing.T) {
	ddv := DDV{1, 2, 3}
	pairs := []DDVPair{{Idx: 1, SN: 2}}
	err := errors.New("x")
	for _, sink := range []EventSink{nil, discardSink{}} {
		n := &Node{sink: sink}
		allocs := testing.AllocsPerRun(100, func() {
			n.emit(Event{Kind: EventCLCCommitted, Seq: 7, DDV: ddv, Pairs: pairs, Forced: true})
			n.emit(Event{Kind: EventHoldMsg, Msg: LogicalID{Seq: 3}, Seq: 8, DDV: ddv})
			n.emit(Event{Kind: EventGCFailed, Round: 9, Err: err})
		})
		if allocs != 0 {
			t.Errorf("sink %T: emit allocates %v per run, want 0", sink, allocs)
		}
	}
}

// benchTB hides the *testing.T from newTestbed, which then builds no
// dense shadows: the allocations counted are the protocol's own.
type benchTB struct{ testing.TB }

// flatApp is an application whose Snapshot allocates nothing: the state
// it hands out is the application itself.
type flatApp struct{}

func (a *flatApp) Snapshot() (any, int)              { return a, 1024 }
func (*flatApp) Restore(any)                         {}
func (*flatApp) Deliver(topology.NodeID, AppPayload) {}

// TestCLCRoundAllocsPerPeer runs full two-phase commits — unforced, and
// forced by a participant's ForceCLC — at 2 and 8 nodes with 1 and 2
// replicas. With an application whose Snapshot allocates nothing, a
// steady-state round allocates nothing on any node: the request,
// prepare acks, replicas, replica acks, commit and force travel in
// recycled boxes, the provisional record is a value, the stored
// records and replicas land in kept capacity, and the arena chunks the
// commit pairs are cut from amortise to under one allocation per round.
func TestCLCRoundAllocsPerPeer(t *testing.T) {
	for _, size := range []int{2, 8} {
		for _, replicas := range []int{1, 2} {
			for _, forced := range []bool{false, true} {
				bed := newTestbed(benchTB{t}, []int{size}, replicas, false)
				for _, n := range bed.nodes {
					n.app = &flatApp{}
				}
				leader, asker := bed.node(0, 0), bed.node(0, size-1)
				minSNs := make([]SN, 1)
				round := func() {
					if forced {
						asker.requestForce(nil, true)
						bed.pump()
					} else {
						bed.commitCLC(0)
					}
					// Drop every older CLC and replica: the stored
					// history stays one record deep.
					minSNs[0] = leader.SN()
					for i := 0; i < size; i++ {
						bed.node(0, i).applyGCDrop(1, minSNs)
					}
				}
				for i := 0; i < 20; i++ {
					round()
				}
				before := leader.SN()
				allocs := testing.AllocsPerRun(100, round)
				if leader.SN() != before+101 {
					t.Fatalf("%d nodes: 101 rounds committed %d CLCs", size, leader.SN()-before)
				}
				if allocs != 0 {
					t.Errorf("%d nodes, %d replicas, forced=%v: %v allocations per round, want 0",
						size, replicas, forced, allocs)
				}
			}
		}
	}
}

// TestLoggedSendAllocs: an inter-cluster send appends a log entry,
// mirrors it to the sender's holder and is acknowledged; a GC round
// then trims the log and the mirror. All of it amortises to under one
// allocation per send: entries are cut from a slab, the mirror travels
// in a recycled box, the message and its ack in pooled ones.
func TestLoggedSendAllocs(t *testing.T) {
	bed := newTestbed(benchTB{t}, []int{2, 1}, 1, false)
	for _, n := range bed.nodes {
		n.app = &flatApp{}
	}
	sender, holder, dst := bed.node(0, 1), bed.node(0, 0), bed.node(1, 0)
	const sends = 32
	var seq uint64
	minSNs := make([]SN, 2)
	batch := func() {
		for k := 0; k < sends; k++ {
			seq++
			sender.Send(dst.ID(), payload(sender.ID(), seq))
			bed.pump()
		}
		// Every entry was acked at dst's SN: a threshold above it
		// trims them all.
		minSNs[0], minSNs[1] = sender.SN(), dst.SN()+1
		sender.applyGCDrop(1, minSNs)
		bed.pump()
	}
	for i := 0; i < 4; i++ {
		batch()
	}
	if sender.LogLen() != 0 || holder.mirrorLen(sender.ID()) != 0 {
		t.Fatalf("GC left %d log entries, %d mirrored", sender.LogLen(), holder.mirrorLen(sender.ID()))
	}
	perSend := testing.AllocsPerRun(20, batch) / sends
	if perSend >= 1 {
		t.Fatalf("%v allocations per logged send, want < 1", perSend)
	}
	t.Logf("%.3f allocations per logged send", perSend)
}
