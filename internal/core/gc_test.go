package core

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

// TestGCSkipsWhileRollbackActive: the initiator refuses to open a round
// mid-rollback; a cluster leader mid-rollback stays silent and the
// round dies instead of shipping inconsistent reports.
func TestGCSkipsWhileRollbackActive(t *testing.T) {
	b := newTestbed(t, []int{2, 2}, 1, false)
	init := b.node(0, 0)
	init.cfg.GCInitiator = true
	b.commitCLC(0)

	// Force rbActive on the initiator by starting a rollback and
	// withholding the peer's ack (don't pump).
	init.startClusterRollback()
	init.OnTimer(TimerGC)
	if b.stats["gc.skipped_busy"] != 1 {
		t.Fatalf("busy initiator did not skip: %v", b.stats["gc.rounds_started"])
	}
	b.pump() // finish the rollback
	if init.rbActive {
		t.Fatal("rollback stuck")
	}

	// A remote leader that is mid-rollback keeps the round incomplete.
	remote := b.node(1, 0)
	remote.startClusterRollback()
	init.OnTimer(TimerGC)
	// Deliver only the GC request, not the rollback traffic: the
	// remote leader must not reply.
	var rest []sentMsg
	for _, m := range b.queue {
		if _, ok := m.msg.(GCRequest); ok && m.dst == remote.ID() {
			remote.OnMessage(m.src, m.msg)
			continue
		}
		rest = append(rest, m)
	}
	b.queue = rest
	b.pump()
	if b.stats["gc.rounds_completed"] != 0 {
		t.Fatal("round completed despite a busy cluster")
	}
}

// TestGCAbortsWhenAlertArrivesMidRound: reports gathered before and
// after a rollback are mutually inconsistent; the round must abort.
func TestGCAbortsWhenAlertArrivesMidRound(t *testing.T) {
	b := newTestbed(t, []int{1, 1}, 0, false)
	init := b.node(0, 0)
	init.cfg.GCInitiator = true
	b.commitCLC(0)
	b.commitCLC(1)

	init.OnTimer(TimerGC)
	// The initiator already has its own report; before cluster 1's
	// report arrives, an alert lands.
	init.OnMessage(b.node(1, 0).ID(), RollbackAlert{Cluster: 1, NewSN: 2, NewEpoch: 1})
	b.pump()
	if b.stats["gc.rounds_aborted"] == 0 {
		t.Fatal("mid-round alert did not abort the GC")
	}
	if b.stats["gc.rounds_completed"] != 0 {
		t.Fatal("round completed despite the alert")
	}
}

// TestGCUnsupportedInBaselineModes: the collector's analysis assumes
// the HC3I rollback rule; baseline modes must refuse to collect.
func TestGCUnsupportedInBaselineModes(t *testing.T) {
	b := newModeTestbed(t, []int{1, 1}, ModeIndependent)
	init := b.node(0, 0)
	init.cfg.GCInitiator = true
	init.OnTimer(TimerGC)
	b.pump()
	if b.stats["gc.unsupported_mode"] != 1 {
		t.Fatal("independent mode ran the GC")
	}
}

// TestGCStaleRoundReportsIgnored: reports from a superseded round are
// discarded.
func TestGCStaleRoundReportsIgnored(t *testing.T) {
	b := newTestbed(t, []int{1, 1}, 0, false)
	init := b.node(0, 0)
	init.cfg.GCInitiator = true
	b.commitCLC(0)

	init.OnTimer(TimerGC) // round 1
	// Capture cluster 1's report but hold it; start round 2 first.
	var held []sentMsg
	for _, m := range b.queue {
		held = append(held, m)
	}
	b.queue = nil
	// Deliver round-1 request to cluster 1 to produce a stale report.
	for _, m := range held {
		if _, ok := m.msg.(GCRequest); ok {
			b.nodes[m.dst].OnMessage(m.src, m.msg)
		}
	}
	staleReports := b.queue
	b.queue = nil

	init.OnTimer(TimerGC) // round 2 supersedes round 1
	// Deliver the stale round-1 report now.
	for _, m := range staleReports {
		if rep, ok := m.msg.(GCReport); ok {
			init.OnMessage(m.src, rep)
		}
	}
	// The stale report must not complete round 2 on its own.
	if b.stats["gc.rounds_completed"] != 0 {
		t.Fatal("stale report completed the round")
	}
	b.pump() // round 2's own exchange completes normally
	if b.stats["gc.rounds_completed"] != 1 {
		t.Fatalf("rounds completed = %d", b.stats["gc.rounds_completed"])
	}
}

// TestGCNeverEmptiesAStore: even after aggressive collection, at least
// one checkpoint (the newest) survives everywhere.
func TestGCNeverEmptiesAStore(t *testing.T) {
	b := newTestbed(t, []int{2, 2, 2}, 1, false)
	b.node(0, 0).cfg.GCInitiator = true
	for round := 0; round < 6; round++ {
		for c := 0; c < 3; c++ {
			b.commitCLC(c)
		}
		b.node(0, 0).OnTimer(TimerGC)
		b.pump()
		for _, n := range b.nodes {
			if n.StoredCount() < 1 {
				t.Fatalf("round %d: node %v emptied", round, n.ID())
			}
		}
	}
	if b.stats["gc.rounds_completed"] != 6 {
		t.Fatalf("completed = %d", b.stats["gc.rounds_completed"])
	}
}

// TestRingGCDiesWhenLeaderBusy: a busy leader drops the token; the next
// timer tick starts a fresh round.
func TestRingGCDiesWhenLeaderBusy(t *testing.T) {
	b := newTestbed(t, []int{2, 2}, 1, false)
	init := b.node(0, 0)
	init.cfg.GCInitiator = true
	init.cfg.RingGC = true
	b.commitCLC(0)
	b.commitCLC(1)

	remote := b.node(1, 0)
	remote.startClusterRollback() // keeps rbActive (acks not pumped yet)
	init.OnTimer(TimerGC)
	// Deliver the token only.
	var rest []sentMsg
	for _, m := range b.queue {
		if _, ok := m.msg.(GCToken); ok {
			remote.OnMessage(m.src, m.msg)
			continue
		}
		rest = append(rest, m)
	}
	b.queue = rest
	b.pump()
	if b.stats["gc.rounds_completed"] != 0 {
		t.Fatal("token survived a busy leader")
	}
	// Next round succeeds once the rollback settled.
	init.OnTimer(TimerGC)
	b.pump()
	if b.stats["gc.rounds_completed"] != 1 {
		t.Fatalf("completed = %d", b.stats["gc.rounds_completed"])
	}
}

// TestMemoryPressureDemandsGC: a node whose checkpoint memory passes
// the threshold demands a collection from the initiator (§3.5 "when a
// node memory saturates").
func TestMemoryPressureDemandsGC(t *testing.T) {
	b := newTestbed(t, []int{2, 2}, 1, false)
	init := b.node(0, 0)
	init.cfg.GCInitiator = true
	// Threshold: roughly four stored states (snapshots are 1024 B in
	// the mock app; each commit adds own state + one replica).
	for _, n := range b.nodes {
		n.cfg.GCMemoryThreshold = 4 * 1024
	}
	if got := init.StorageBytes(); got == 0 {
		t.Fatal("initial storage unaccounted")
	}
	for k := 0; k < 4; k++ {
		b.commitCLC(1) // pressure builds in cluster 1, away from the initiator
	}
	if b.stats["gc.demands"] == 0 {
		t.Fatal("no saturation demand issued")
	}
	if b.stats["gc.demand_rounds"] == 0 {
		t.Fatal("demand did not start a round")
	}
	if b.stats["gc.rounds_completed"] == 0 {
		t.Fatal("demand round did not complete")
	}
	// The demand round reclaimed checkpoints; commits after it may
	// re-grow the store (the next saturation demands again, modulo the
	// rate limit), but it stays below the uncollected count.
	if b.stats["gc.clcs_removed"] == 0 {
		t.Fatal("demand round reclaimed nothing")
	}
	if got := b.node(1, 0).StoredCount(); got >= 5 {
		t.Fatalf("cluster 1 stores %d CLCs, pressure unrelieved", got)
	}
}

// TestMemoryDemandsRateLimited: repeated saturation demands inside the
// rate-limit window coalesce.
func TestMemoryDemandsRateLimited(t *testing.T) {
	b := newTestbed(t, []int{1, 2}, 1, false)
	init := b.node(0, 0)
	init.cfg.GCInitiator = true
	// Demands from two different nodes in quick succession (the
	// testbed clock advances nanoseconds per message, far below the
	// one-minute limit).
	init.OnMessage(b.node(1, 0).ID(), GCDemand{From: b.node(1, 0).ID(), Bytes: 1 << 30})
	b.pump()
	init.OnMessage(b.node(1, 1).ID(), GCDemand{From: b.node(1, 1).ID(), Bytes: 1 << 30})
	b.pump()
	if b.stats["gc.demand_rounds"] != 1 {
		t.Fatalf("demand rounds = %d, want 1", b.stats["gc.demand_rounds"])
	}
	if b.stats["gc.demands_coalesced"] != 1 {
		t.Fatalf("coalesced = %d, want 1", b.stats["gc.demands_coalesced"])
	}
}

var _ = topology.NodeID{} // test helpers address nodes by ID

// TestGCDropCarriesInitiatorRound: every node of every cluster applies
// a round's thresholds under the initiator's round number, star and
// ring alike — not only the initiator's own cluster, which is the one
// whose leader advances the counter.
func TestGCDropCarriesInitiatorRound(t *testing.T) {
	for _, ring := range []bool{false, true} {
		b := newTestbed(t, []int{2, 2, 2}, 1, false)
		init := b.node(0, 0)
		init.cfg.GCInitiator = true
		init.cfg.RingGC = ring
		for round := uint64(1); round <= 3; round++ {
			for c := 0; c < 3; c++ {
				b.commitCLC(c)
			}
			init.OnTimer(TimerGC)
			b.pump()
			if got := b.stats["gc.rounds_completed"]; got != round {
				t.Fatalf("ring=%v: %d rounds completed, want %d", ring, got, round)
			}
			for id := range b.nodes {
				if got := b.shadows.gcRounds[id]; got != round {
					t.Errorf("ring=%v: %v applied round %d's drop as round %d", ring, id, round, got)
				}
			}
		}
	}
}

// TestGCRefusesReportOutsideWidth: a GC report whose current-vector
// patch names an entry outside the federation's width (index width or
// -1), or whose anchor is another width, is refused at the initiator —
// counted, filling no slot — instead of reaching the analysis, star
// and ring alike. The cluster's well-formed report then completes the
// round.
func TestGCRefusesReportOutsideWidth(t *testing.T) {
	const width = 2
	misfits := []struct {
		name string
		bend func(GCReport) GCReport
	}{
		{"patch index width", func(r GCReport) GCReport { r.CurPairs = []DDVPair{{Idx: width, SN: 5}}; return r }},
		{"patch index -1", func(r GCReport) GCReport { r.CurPairs = []DDVPair{{Idx: -1, SN: 5}}; return r }},
		{"anchor width", func(r GCReport) GCReport { r.Chain.Anchor.Width = width + 1; return r }},
	}
	for _, ring := range []bool{false, true} {
		for _, mf := range misfits {
			b := newTestbed(t, []int{1, 1}, 0, false)
			init := b.node(0, 0)
			init.cfg.GCInitiator = true
			init.cfg.RingGC = ring
			b.commitCLC(0)
			b.commitCLC(1)

			// Hold cluster 1's report (star) or the phase-0 token
			// carrying it (ring) on its way to the initiator.
			b.withhold = func(m sentMsg) bool {
				switch tok := m.msg.(type) {
				case GCReport:
					return true
				case GCToken:
					return tok.Phase == 0 && m.dst == init.ID()
				}
				return false
			}
			init.OnTimer(TimerGC)
			b.pump()
			b.withhold = nil
			if len(b.withheld) != 1 {
				t.Fatalf("ring=%v: %d messages held, want cluster 1's report", ring, len(b.withheld))
			}
			good := b.withheld[0]
			bad := good
			switch m := good.msg.(type) {
			case GCReport:
				bad.msg = mf.bend(m)
			case GCToken:
				m.Reports = slices.Clone(m.Reports)
				m.Reports[1] = mf.bend(m.Reports[1])
				bad.msg = m
			}

			b.queue = append(b.queue, bad)
			b.pump()
			if got := b.stats["ctl.refused_width"]; got != 1 {
				t.Fatalf("ring=%v %s: %d refusals, want 1", ring, mf.name, got)
			}
			if got := b.stats["gc.rounds_completed"]; got != 0 {
				t.Fatalf("ring=%v %s: a misfit report completed the round", ring, mf.name)
			}
			b.queue = append(b.queue, good)
			b.pump()
			if got := b.stats["gc.rounds_completed"]; got != 1 {
				t.Fatalf("ring=%v %s: the well-formed report completed %d rounds, want 1", ring, mf.name, got)
			}
		}
	}
}
