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
// never fire in the hc3itrace golden.
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
	for k := EventCLCRequest; k <= EventRestarted; k++ {
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

// TestCLCRoundAllocsPerPeer runs one full two-phase commit at two
// cluster sizes. What a round allocates per node is the participant's
// own work: its snapshot, its provisional record, the Replica it sends
// to its holder and the holder's ReplicaAck — plus the CLCAck of every
// node but the leader. Everything else is per round, so the leader's
// CLCRequest and CLCCommit broadcasts box their message once, not once
// per peer.
func TestCLCRoundAllocsPerPeer(t *testing.T) {
	perRound := func(size int) float64 {
		bed := newTestbed(benchTB{t}, []int{size}, 1, false)
		minSNs := make([]SN, 1)
		round := func() {
			bed.commitCLC(0)
			// Drop every older CLC and replica: the stored history
			// stays one record deep, so no slice or map grows.
			minSNs[0] = bed.node(0, 0).SN()
			for i := 0; i < size; i++ {
				bed.node(0, i).applyGCDrop(minSNs)
			}
		}
		for i := 0; i < 20; i++ {
			round()
		}
		perNode := 4*size + (size - 1)
		return testing.AllocsPerRun(100, round) - float64(perNode)
	}
	small, large := perRound(2), perRound(8)
	if small != large {
		t.Fatalf("per-round allocations beyond the per-node ones: %v at 2 nodes, %v at 8", small, large)
	}
}
